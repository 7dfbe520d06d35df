// Command perfbench is the repository benchmark. It runs one workload of
// the simulated barrier-enabled IO stack for a fixed host-time budget,
// checks the program's outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of its output:
//
//	perfbench --workload kv-barrier --seed 1 --seconds 10 --trace 0
//
// A run repeats one unit of work (a "rep") until the budget is spent.
// Host-time figures are medians over the reps, host_s and setup_s scaled
// by the machine's speed during each rep (see calib.go); simulated
// figures and per-layer counts are deterministic under the seed and must
// repeat bit for bit in every rep. See README.md for the workloads, the
// metrics and what each layer's metrics should move.
package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// workloads are the benchmark's workloads, by name.
var workloads = map[string]func(r *rep, seed int64){
	"kv-barrier":  kvWorkload(core.BFSDR, 200*sim.Millisecond),
	"kv-flush":    kvWorkload(core.EXT4DR, 400*sim.Millisecond),
	"cluster-mq":  runCluster,
	"crash-check": runCrash,
}

// benchProcs is the GOMAXPROCS the benchmark runs at (capped at the CPU
// count). One kernel runs at a time; a single P keeps goroutine hand-offs
// between simulated processes on one thread, which makes host time
// steadier than letting them migrate.
const benchProcs = 1

// minReps is the fewest measured reps a run makes, whatever its budget.
const minReps = 3

// tuningSeeds are the seeds the benchmark's sizes were tuned on; results
// on any other seed are held out.
var tuningSeeds = map[int64]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true, 10: true}

// rep is one repetition of a workload: what it measured and what its
// output checks found.
type rep struct {
	tr     *tracer // nil: tracing off
	kstats *sim.KernelStats
	cal    *calibrator // nil: no calibration (traced reps)
	// scale is the machine's slowness during the rep against the
	// calibration reference (see calib.go); 1 on traced reps.
	scale float64

	setupD, timedD time.Duration
	gostats        goStats // Go runtime counters over the whole rep

	// det holds simulated results and per-layer counts: deterministic
	// under the seed, so identical in every rep.
	det map[string]float64
	// host holds per-layer host-time figures (seconds).
	host map[string]float64

	attempted, failed int64
	problems          []string
	notes             []string
	exemplars         []reqtrace.Exemplar
}

func newRep(tr *tracer) *rep {
	return &rep{tr: tr, kstats: &sim.KernelStats{}, scale: 1, det: map[string]float64{}, host: map[string]float64{}}
}

// setup runs fn as set-up work inside a span and returns its duration.
func (r *rep) setup(name string, fn func()) time.Duration {
	t := time.Now()
	r.tr.span(name, fn)
	d := time.Since(t)
	r.setupD += d
	return d
}

// timed runs fn as timed-phase work inside a span and returns its
// duration. An untimed calibration slice may follow it.
func (r *rep) timed(name string, fn func()) time.Duration {
	t := time.Now()
	r.tr.span(name, fn)
	d := time.Since(t)
	r.timedD += d
	r.calibrate(d)
	return d
}

func (r *rep) addSetup(d time.Duration) { r.setupD += d }
func (r *rep) addTimed(d time.Duration) { r.timedD += d }

// calibrate accounts d of timed work on the rep's calibrator, which runs a
// calibration slice when its interval has passed.
func (r *rep) calibrate(d time.Duration) {
	if r.cal != nil {
		r.cal.after(d)
	}
}

// sampler returns a request-trace sampler on traced reps, nil otherwise.
func (r *rep) sampler() *reqtrace.Sampler {
	if r.tr == nil {
		return nil
	}
	return reqtrace.NewSampler(reqtrace.Config{Uniform: 16, TopK: 8})
}

func (r *rep) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *rep) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// streamSeed derives an independent seed for one generated stream.
func streamSeed(seed int64, stream string, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, idx)
	x := h.Sum64()
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// runRep runs one rep and folds the kernel stats into its counts. cal,
// when not nil, calibrates the rep.
func runRep(work func(*rep, int64), seed int64, tr *tracer, cal *calibrator) (*rep, float64) {
	runtime.GC() // start every rep from a collected heap
	r := newRep(tr)
	if cal != nil {
		cal.reset()
		r.cal = cal
	}
	hw := watchHeap()
	g := readGoStats()
	work(r, seed)
	r.gostats = readGoStats().sub(g)
	peak := hw.stop()
	if cal != nil {
		r.scale = cal.scale()
	}
	ks := r.kstats
	r.det["sim.events"] += float64(ks.HandlerDispatches.Load() + ks.GoroutineDispatches.Load())
	r.det["sim.goroutine_events"] += float64(ks.GoroutineDispatches.Load())
	r.det["sim.stale_events"] += float64(ks.StaleEvents.Load())
	return r, peak
}

// result is a whole run: every rep of one workload and seed.
type result struct {
	// warm is the run's first rep: checked like every rep, but left out of
	// the host figures, since it alone pays the process's cold start.
	warm         *rep
	reps, traced []*rep
	peaks        []float64 // per untraced rep
	buckets      profileBuckets
	tracer       *tracer // the traced reps' spans; nil untraced
	problems     []string
	notes        []string
}

func (res *result) all() []*rep {
	return append(append([]*rep{res.warm}, res.reps...), res.traced...)
}

// run runs a workload for the budget. Untraced reps measure the end-to-end
// metrics; with trace, the second half of the budget runs traced reps under
// a CPU profile.
func run(work func(*rep, int64), seed int64, budget time.Duration, trace bool) *result {
	res := &result{buckets: profileBuckets{}}
	start := time.Now()
	cal := newCalibrator()
	res.warm, _ = runRep(work, seed, nil, cal)
	untracedBudget, untracedMin := budget, minReps
	if trace {
		untracedBudget, untracedMin = budget/2, 2
	}
	for len(res.reps) < untracedMin || time.Since(start) < untracedBudget {
		r, peak := runRep(work, seed, nil, cal)
		res.reps = append(res.reps, r)
		res.peaks = append(res.peaks, peak)
	}
	if trace {
		tr := newTracer()
		res.tracer = tr
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("cpu profile: %v", err))
		}
		for len(res.traced) < 2 || time.Since(start) < budget {
			tr.tid = len(res.traced) + 1
			r, _ := runRep(work, seed, tr, nil)
			res.traced = append(res.traced, r)
		}
		pprof.StopCPUProfile()
		if err := res.buckets.add(prof.Bytes()); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}
	res.check()
	return res
}

// check collects every rep's failed output checks and verifies that the
// deterministic results repeat bit for bit across reps (rep 0 is the
// warm-up), traced or not.
func (res *result) check() {
	all := res.all()
	for i, r := range all {
		for _, p := range r.problems {
			res.problems = append(res.problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if i == 0 {
			res.notes = r.notes
			continue
		}
		for _, d := range detDiff(all[0].det, r.det) {
			res.problems = append(res.problems, fmt.Sprintf("rep %d: %s differs from rep 0", i, d))
		}
	}
}

// detDiff lists the keys whose values are not bit-identical.
func detDiff(a, b map[string]float64) []string {
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			out = append(out, fmt.Sprintf("%s (%v vs %v)", k, v, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s (missing vs %v)", k, b[k]))
		}
	}
	sort.Strings(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func (res *result) attempted() (att, failed int64) {
	for _, r := range res.all() {
		att += r.attempted
		failed += r.failed
	}
	return att, failed
}

// hostS is host_s: the median over the reps of the timed phase's wall
// time divided by the machine's slowness during the rep.
func hostS(reps []*rep) float64 {
	return median(collect(reps, func(r *rep) float64 { return r.timedD.Seconds() / r.scale }))
}

// setupS is setup_s: the median over the reps of the set-up's wall time
// divided by the machine's slowness during the rep.
func setupS(reps []*rep) float64 {
	return median(collect(reps, func(r *rep) float64 { return r.setupD.Seconds() / r.scale }))
}

// wallS is the median over the reps of the timed phase's wall time.
func wallS(reps []*rep) float64 {
	return median(collect(reps, func(r *rep) float64 { return r.timedD.Seconds() }))
}

// endToEndValues computes the end-to-end metrics from the untraced reps.
func (res *result) endToEndValues() map[string]float64 {
	det := res.reps[0].det
	return map[string]float64{
		"setup_s":       setupS(res.reps),
		"host_s":        hostS(res.reps),
		"peak_heap_mb":  median(res.peaks),
		"sim_ops_per_s": det["sim_ops_per_s"],
		"sim_mean_ms":   det["sim_mean_ms"],
	}
}

// ratio returns a/b, or notMeasured when the denominator is absent.
func ratio(a, b float64) float64 {
	if b == 0 {
		return notMeasured
	}
	return a / b
}

// perLayerValues computes the per-layer metrics of a traced run.
func (res *result) perLayerValues() map[string]float64 {
	det := res.reps[0].det
	host := hostS(res.reps)
	tracedS := wallS(res.traced)
	// Counts recorded under their metric's name pass straight through;
	// the ratios and host figures are derived below.
	v := map[string]float64{}
	for _, d := range perLayer {
		if x, ok := det[d.name]; ok {
			v[d.name] = x
		}
	}
	if det["sim.events"] > 0 {
		v["sim.goroutine_dispatch_frac"] = det["sim.goroutine_events"] / det["sim.events"]
		v["sim.events_per_host_s"] = ratio(det["sim.events"], host)
	}
	if _, ok := det["ftl.host_appends"]; ok {
		v["ftl.write_amp"] = ratio(det["ftl.host_appends"]+det["ftl.gc_appends"], det["ftl.host_appends"])
	}
	if _, ok := det["jbd.pages_logged"]; ok {
		v["jbd.pages_per_commit"] = ratio(det["jbd.pages_logged"], det["jbd.commits"])
	}
	if _, ok := det["kvwal.group_commits"]; ok {
		v["kvwal.ops_per_group"] = ratio(det["kvwal.mutations"], det["kvwal.group_commits"])
		v["kvwal.wal_bytes_per_op"] = ratio(det["kvwal.wal_bytes"], det["kvwal.mutations"])
	}
	hostMedian := func(name string) float64 {
		return median(collect(res.reps, func(r *rep) float64 { return r.host[name] }))
	}
	if _, ok := res.reps[0].host["workload.generate_s"]; ok {
		v["workload.generate_s"] = hostMedian("workload.generate_s")
	}
	if det["crashmc.images"] > 0 {
		v["crashmc.us_per_image"] = 1e6 * hostMedian("crashmc.modelcheck_s") / det["crashmc.images"]
		v["crashmc.recover_s"] = hostMedian("crashmc.recover_s")
	}
	var g goStats
	for _, r := range res.reps {
		g = g.add(r.gostats)
	}
	n := float64(len(res.reps))
	v["go.alloc_mb"] = g.allocBytes / n / (1 << 20)
	v["go.gc_cycles"] = g.gcCycles / n
	v["go.gc_cpu_frac"] = ratio(g.gcCPU, g.totalCPU)

	shares := res.buckets.shares()
	for _, l := range selfFracLayers {
		v[l+".self_frac"] = shares[l]
	}
	if cmds := det["device.cmds"]; cmds > 0 {
		v["device.host_ns_per_cmd"] = shares["device"] * host * 1e9 / cmds
	}
	if mc := res.tracer.total("crashmc.ModelCheck"); mc > 0 {
		var chk float64
		for name, t := range res.tracer.totals {
			if strings.HasPrefix(name, "Checker.Check/") {
				chk += t.TotalS
			}
		}
		v["crashmc.checker_frac"] = chk / mc
	}
	var exs []reqtrace.Exemplar
	for _, r := range res.traced {
		exs = append(exs, r.exemplars...)
	}
	if len(exs) > 0 {
		for _, st := range reqtrace.AnalyzeTop(exs) {
			v["stage."+st.Stage+".p99_ms"] = st.P99Ms
		}
		for _, st := range reqtrace.AnalyzeSub(exs) {
			v["stage."+st.Stage+".share"] = st.SharePct / 100
		}
	}
	att, failed := res.attempted()
	v["fail_frac"] = ratio(float64(failed), float64(att))
	v["trace.overhead_frac"] = ratio(tracedS, wallS(res.reps))
	v["bench.wall_s"] = wallS(res.reps)
	v["bench.cal_scale"] = median(collect(res.reps, func(r *rep) float64 { return r.scale }))

	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			x = notMeasured
		}
		out[d.name] = x
	}
	return out
}
