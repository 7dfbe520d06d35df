package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	check := func(list string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", list, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", list, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// lastJSON parses the result line a run prints last.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric makes the shortest traced run of each
// workload and checks it passes its output checks, prints every per-layer
// metric, and records every end-to-end metric as a positive number.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if code := realMain([]string{"--workload", w, "--seed", "11", "--seconds", "0", "--trace", "1", "--out", dir}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			res := lastJSON(t, stdout.String())
			if res["correct"] != true {
				t.Fatalf("output checks failed: %s", stderr.String())
			}
			if att, _ := res["attempted"].(float64); att < 1 {
				t.Errorf("attempted %v", res["attempted"])
			}
			got := res["metrics"].(map[string]any)
			if len(got) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(got), len(perLayer))
			}
			for _, d := range perLayer {
				m, ok := got[d.name].(map[string]any)
				if !ok || m["unit"] != d.unit {
					t.Errorf("per-layer metric %s missing or with the wrong unit: %v", d.name, got[d.name])
				}
			}
			raw, err := os.ReadFile(filepath.Join(dir, w, "seed11", "metrics.json"))
			if err != nil {
				t.Fatal(err)
			}
			var files struct {
				EndToEnd map[string]float64 `json:"end_to_end"`
			}
			if err := json.Unmarshal(raw, &files); err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v := files.EndToEnd[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			for _, f := range []string{"trace.json", "spans.json", "profile.json", "stages.json"} {
				if _, err := os.Stat(filepath.Join(dir, w, "seed11", f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCrashChecksFire puts the nobarrier profile in a must-be-clean slot
// and a protected profile in the control slot: both must fail the run.
func TestCrashChecksFire(t *testing.T) {
	nobarrier := compact(core.EXT4OD(device.LegacySSD()))
	protected := compact(core.EXT4DR(device.PlainSSD()))

	r := newRep(nil)
	runCrashCells(r, 1, []crashCell{orderingCell("nobarrier-as-protected", nobarrier, 3, at(1200), false)})
	if r.failed == 0 || len(r.problems) == 0 {
		t.Errorf("nobarrier in a protected slot: failed=%d problems=%v", r.failed, r.problems)
	}

	r = newRep(nil)
	runCrashCells(r, 1, []crashCell{orderingCell("protected-as-control", protected, 0, at(1200), true)})
	if len(r.problems) == 0 {
		t.Error("a clean control cell passed the check that the checkers bite")
	}
}

func TestDetDiffIsBitExact(t *testing.T) {
	p, q := 0.1, 0.2 // variables: a constant 0.1+0.2 folds to exactly 0.3
	a := map[string]float64{"x": p + q, "y": 1}
	if d := detDiff(a, map[string]float64{"x": p + q, "y": 1}); len(d) != 0 {
		t.Errorf("identical maps differ: %v", d)
	}
	if d := detDiff(a, map[string]float64{"x": 0.3, "y": 1}); len(d) != 1 {
		t.Errorf("0.1+0.2 vs 0.3: %v", d)
	}
	if d := detDiff(a, map[string]float64{"x": p + q}); len(d) != 1 {
		t.Errorf("missing key: %v", d)
	}
}

// TestCalibration checks that a calibration slice allocates nothing (so it
// cannot shift the program's garbage collection), that a rep's first
// timed piece is followed by a slice, and that later slices wait for
// calEvery of timed work.
func TestCalibration(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, func() { c.slice() }); n != 0 {
		t.Errorf("a calibration slice allocates %v times", n)
	}
	c.reset()
	if c.scale() != 1 {
		t.Errorf("scale with no slice = %v, want 1", c.scale())
	}
	c.after(time.Millisecond)
	c.after(calEvery - time.Millisecond)
	if len(c.slices) != 1 {
		t.Errorf("%d slices after the first piece and less than calEvery more, want 1", len(c.slices))
	}
	c.after(time.Millisecond)
	if len(c.slices) != 2 || !(c.scale() > 0) {
		t.Errorf("%d slices after calEvery more, want 2; scale %v", len(c.slices), c.scale())
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/ftl.(*FTL).DurableData", "repro/internal/jbd.Scan"}, "ftl"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/device.(*Device).pick"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "go.sched"},
		{[]string{"repro/internal/nand.New", "repro/internal/device.New", "repro/internal/core.NewStack", "main.newStack.func1"}, "setup"},
		{[]string{"repro/internal/sim.(*Queue[...]).Get", "repro/internal/kvwal.(*Store).committer"}, "sim"},
		{[]string{"main.(*kvLoad).spawn.func1"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-flush", "--trace", "2"},
		{"--workload", "kv-flush", "--seconds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
