package main

import "fmt"

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract; BENCHMARK.json repeats them (a test keeps
// the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"sim_ops_per_s", "ops/s"},
	{"sim_mean_ms", "ms"},
}

// notMeasured is the value of a per-layer metric the workload does not
// exercise, or cannot observe through the public API it drives.
const notMeasured = -1

// selfFracLayers are the CPU-profile buckets of the timed phase.
var selfFracLayers = []string{
	"sim", "device", "nand", "ftl", "block", "blkmq", "jbd", "fs", "kvwal",
	"kvcluster", "workload", "crashmc", "metrics", "reqtrace",
	"go.gc", "go.sched", "bench", "other",
}

// clusterLadder is cluster-mq's fixed ladder of offered rates, in req/s.
var clusterLadder = []int{60_000, 80_000, 100_000, 120_000, 140_000, 160_000}

// clusterHeavyRate is the ladder rung the simulated end-to-end metrics of
// cluster-mq are read at: the highest rung below the knee.
const clusterHeavyRate = 80_000

func shedFracName(rate int) string { return fmt.Sprintf("kvcluster.shed_frac.r%03dk", rate/1000) }

// perLayer are printed by every traced run, on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.goroutine_dispatch_frac", "ratio"},
		{"sim.stale_events", "count"},
		{"sim.events_per_host_s", "1/s"},
		{"device.cmds", "count"},
		{"device.flushes", "count"},
		{"device.barriers", "count"},
		{"device.busy_rejects", "count"},
		{"device.mean_qd", "cmds"},
		{"device.host_ns_per_cmd", "ns"},
		{"nand.programs", "count"},
		{"nand.erases", "count"},
		{"ftl.write_amp", "ratio"},
		{"ftl.gc_runs", "count"},
		{"ftl.stalls", "count"},
		{"block.dispatched", "count"},
		{"block.staged_peak", "count"},
		{"blkmq.dispatched", "count"},
		{"blkmq.spread", "count"},
		{"blkmq.staged_peak", "count"},
		{"jbd.commits", "count"},
		{"jbd.pages_per_commit", "pages"},
		{"jbd.flushes", "count"},
		{"jbd.conflict_waits", "count"},
		{"jbd.checkpoint_force", "count"},
		{"fs.fdatasyncs", "count"},
		{"fs.fdatabarriers", "count"},
		{"fs.pages_written", "count"},
		{"kvwal.ops_per_group", "ops"},
		{"kvwal.checkpoint_syncs", "count"},
		{"kvwal.compactions", "count"},
		{"kvwal.wal_bytes_per_op", "bytes"},
	}
	for _, r := range clusterLadder {
		defs = append(defs, metricDef{shedFracName(r), "ratio"})
	}
	defs = append(defs, []metricDef{
		{"kvcluster.shard_skew", "ratio"},
		{"max_rate_at_slo", "req/s"},
		{"workload.generate_s", "s"},
		{"crashmc.states", "count"},
		{"crashmc.images", "count"},
		{"crashmc.capped_cells", "count"},
		{"crashmc.us_per_image", "us"},
		{"crashmc.checker_frac", "ratio"},
		{"crashmc.recover_s", "s"},
		{"go.alloc_mb", "MiB"},
		{"go.gc_cycles", "count"},
		{"go.gc_cpu_frac", "ratio"},
	}...)
	for _, s := range []string{"queue", "batch", "durability", "ack"} {
		defs = append(defs, metricDef{"stage." + s + ".p99_ms", "ms"})
	}
	for _, s := range []string{"prep", "journal", "blockq", "devq", "device", "residual"} {
		defs = append(defs, metricDef{"stage." + s + ".share", "ratio"})
	}
	for _, l := range selfFracLayers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio"})
	}
	return append(defs, []metricDef{
		{"sim_p50_ms", "ms"},
		{"sim_p99_ms", "ms"},
		{"sim_samples", "count"},
		{"fail_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"bench.wall_s", "s"},
		{"bench.cal_scale", "ratio"},
	}...)
}()
