package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/reqtrace"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs the benchmark. It returns 2, printing no result, when the
// arguments are bad; otherwise 0, with the result as the last stdout line.
func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: kv-barrier, kv-flush, cluster-mq or crash-check")
	seed := fl.Int64("seed", 1, "seed of every generated input stream; any value not in the tuning set is held out")
	seconds := fl.Int("seconds", 10, "host-time budget of the run")
	trace := fl.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	out := fl.String("out", ".bench_out", "directory for the traced run's files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[*name]
	if !ok || fl.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1
	runtime.GOMAXPROCS(min(benchProcs, runtime.NumCPU()))
	id := identify(*name, *seed, *seconds, traced)
	fmt.Fprintf(stdout, "# identity %s\n", mustJSON(id))

	res := run(work, *seed, time.Duration(*seconds)*time.Second, traced)
	e2e := res.endToEndValues()
	printReport(stdout, res, e2e)
	defs, vals := endToEnd, e2e
	if traced {
		pl := res.perLayerValues()
		dir := filepath.Join(*out, *name, fmt.Sprintf("seed%d", *seed))
		if err := writeTraceFiles(dir, id, res, e2e, pl); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("writing traced outputs: %v", err))
		} else {
			fmt.Fprintf(stdout, "# traced outputs in %s\n", dir)
		}
		defs, vals = perLayer, pl
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	att, failed := res.attempted()
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	fmt.Fprintln(stdout, mustJSON(map[string]any{
		"correct": len(res.problems) == 0, "attempted": att, "failed": failed, "metrics": metrics,
	}))
	return 0
}

// identity stamps a result with the machine and inputs it was measured on.
type identity struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	HeldOut    bool   `json:"held_out_seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

func identify(workload string, seed int64, seconds int, trace bool) identity {
	return identity{
		Workload: workload, Seed: seed, HeldOut: !tuningSeeds[seed], Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the benchmark was built from: the VCS revision
// when the build recorded one, else a hash of the Go sources and module
// files under the working directory (a checkout without version control).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// printReport prints the human-readable summary, every line prefixed "# ".
func printReport(w io.Writer, res *result, e2e map[string]float64) {
	timed := collect(res.reps, func(r *rep) float64 { return r.timedD.Seconds() })
	setup := collect(res.reps, func(r *rep) float64 { return r.setupD.Seconds() })
	fmt.Fprintf(w, "# %d untraced reps, %d traced\n", len(res.reps), len(res.traced))
	fmt.Fprintf(w, "# per-rep timed wall s  %s\n", fmtList(timed))
	fmt.Fprintf(w, "# per-rep set-up wall s %s\n", fmtList(setup))
	fmt.Fprintf(w, "# per-rep peak_heap_mb %s\n", fmtList(res.peaks))
	fmt.Fprintf(w, "# per-rep machine slowness %s\n", fmtList(collect(res.reps, func(r *rep) float64 { return r.scale })))
	fmt.Fprintf(w, "# end-to-end (tracing off; host figures are medians over reps, host_s and setup_s divided by the machine's slowness):\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "#   %-16s %14.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	det := res.reps[0].det
	att, failed := res.attempted()
	fmt.Fprintf(w, "#   %-16s %14.6g ms\n", "sim_p50_ms", det["sim_p50_ms"])
	fmt.Fprintf(w, "#   %-16s %14.6g ms (%g latency samples)\n", "sim_p99_ms", det["sim_p99_ms"], det["sim_samples"])
	if x, ok := det["max_rate_at_slo"]; ok {
		fmt.Fprintf(w, "#   %-16s %14.6g req/s (highest ladder rate with >= %.0f%% of offered within the SLO)\n", "max_rate_at_slo", x, 100*sloAttain)
	}
	fmt.Fprintf(w, "#   %-16s %14.6g (%d failed of %d attempted)\n", "fail_frac", ratio(float64(failed), float64(att)), failed, att)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	fmt.Fprintf(w, "# simulated figures come from a model that is not validated against hardware; no accuracy figure is claimed\n")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeTraceFiles writes the traced run's outputs: the Chrome trace of
// host spans, the span table, the profile buckets, the reqtrace stage
// tables and the metrics, each stamped with the run's identity.
func writeTraceFiles(dir string, id identity, res *result, e2e, pl map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var chrome strings.Builder
	if err := res.tracer.writeChrome(&chrome); err != nil {
		return err
	}
	var exs []reqtrace.Exemplar
	for _, r := range res.traced {
		exs = append(exs, r.exemplars...)
	}
	files := map[string]any{
		"metrics.json": map[string]any{"identity": id, "end_to_end": e2e, "per_layer": pl, "problems": res.problems},
		"spans.json":   map[string]any{"identity": id, "spans": res.tracer.spanTable(), "dropped": res.tracer.dropped},
		"profile.json": map[string]any{"identity": id, "cpu_ns": res.buckets, "timed_shares": res.buckets.shares()},
		"stages.json": map[string]any{"identity": id, "exemplars": len(exs),
			"top": reqtrace.AnalyzeTop(exs), "durability": reqtrace.AnalyzeSub(exs)},
	}
	for name, v := range files {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), []byte(chrome.String()), 0o644)
}
