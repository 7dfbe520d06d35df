package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The cluster-mq workload: kvcluster in the MQStreams shape, four shards
// as filesystems on one NVMe multi-queue device (BFS-MQ), each shard on its
// own block-layer order stream. Open-loop Poisson arrivals, Zipf 0.99 over
// 8192 keys, 20% reads and 10% deletes, two tenants, a 2 ms SLO. The run
// climbs a fixed ladder of offered rates across the knee; the simulated
// end-to-end metrics are read at clusterHeavyRate.
const (
	clusterShards  = 4
	clusterVNodes  = 64
	clusterKeys    = 8192
	clusterTenants = 2
	clusterSLO     = 2 * sim.Millisecond
	clusterWarmup  = 4 * sim.Millisecond
	clusterWindow  = 40 * sim.Millisecond
	// clusterHeavyWindow is the heavy rung's longer window: its p99 is an
	// end-to-end metric, and needs enough samples to repeat across seeds.
	clusterHeavyWindow = 400 * sim.Millisecond
	// clusterSlice is how often the bench clock on a rung's kernel wakes.
	clusterSlice = 20 * sim.Millisecond
	// sloAttain is the share of offered requests that must finish within
	// the SLO for a rung to count as sustained; shed requests are misses.
	sloAttain = 0.99
)

// clusterTrace generates one rung's request stream from the seed and packs
// it as a replayable trace, so kvcluster.Run receives only generated input.
func clusterTrace(seed int64, rate int, window sim.Duration) *workload.Trace {
	tr := kvcluster.Traffic{
		Arrivals:  workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: float64(rate), Seed: streamSeed(seed, "cluster", rate)},
		Mix:       workload.Mix{ReadPct: 20, DeletePct: 10},
		KeySpace:  clusterKeys,
		ZipfTheta: 0.99,
		Tenants:   clusterTenants,
		Warmup:    clusterWarmup,
		Duration:  window,
	}
	reqs := tr.Generate()
	out := &workload.Trace{Rows: make([]workload.TraceRow, len(reqs))}
	for i, q := range reqs {
		out.Rows[i] = workload.TraceRow{T: sim.Duration(q.At), Op: q.Class, Key: q.Key}
	}
	return out
}

func runCluster(r *rep, seed int64) {
	traces := make([]*workload.Trace, len(clusterLadder))
	var heavyParts [][]kvcluster.Request
	gen := r.setup("Traffic.Generate", func() {
		for i, rate := range clusterLadder {
			traces[i] = clusterTrace(seed, rate, rungWindow(rate))
		}
	})
	// The heavy rung's routed split, for the shard-skew figure; Run routes
	// the replayed stream over the same ring.
	gen += r.setup("Partition", func() {
		for i, rate := range clusterLadder {
			if rate != clusterHeavyRate {
				continue
			}
			reqs := make([]kvcluster.Request, len(traces[i].Rows))
			for j, row := range traces[i].Rows {
				reqs[j] = kvcluster.Request{At: sim.Time(row.T), Key: row.Key}
			}
			heavyParts = kvcluster.Partition(reqs, kvcluster.NewRing(clusterShards, clusterVNodes))
		}
	})
	r.host["workload.generate_s"] = gen.Seconds()
	var maxPart, sumPart float64
	for _, p := range heavyParts {
		maxPart = max(maxPart, float64(len(p)))
		sumPart += float64(len(p))
	}
	if sumPart > 0 {
		r.det["kvcluster.shard_skew"] = maxPart / (sumPart / float64(len(heavyParts)))
	}

	sustained := true
	r.det["max_rate_at_slo"] = 0
	for i, rate := range clusterLadder {
		reg := metrics.NewRegistry()
		store := kvwal.DefaultConfig()
		store.Metrics = reg
		// A clock on the cluster's kernel wakes every clusterSlice of
		// simulated time until the offered window ends. Its first wake-up,
		// the kernel's first dispatch, ends the cluster's set-up (stack,
		// filesystems and shard daemons are built by then); each wake-up
		// accounts the host time since the last as timed work and may run
		// an untimed calibration slice. The clock is a handler proc that
		// touches nothing else, so it adds a few events and no goroutine.
		var start, resume time.Time
		stop := sim.Time(clusterWarmup + rungWindow(rate))
		cfg := kvcluster.Config{
			Shards: clusterShards, VNodes: clusterVNodes, Mode: kvcluster.MQStreams,
			Profile: core.BFSMQ, SLO: clusterSLO, Metrics: reg, Store: store,
			NewKernel: func(string) *sim.Kernel {
				k := sim.NewKernel()
				k.SpawnHandler("bench/clock", func(h *sim.Proc) {
					now := time.Now()
					if resume.IsZero() {
						r.addSetup(now.Sub(start))
					} else {
						r.addTimed(now.Sub(resume))
						r.calibrate(now.Sub(resume))
					}
					resume = time.Now()
					if next := h.Now().Add(clusterSlice); next < stop {
						h.WakeAt(next)
					} else {
						h.Complete()
					}
				})
				return k
			},
		}
		heavy := rate == clusterHeavyRate
		if heavy && r.tr != nil {
			cfg.Trace = &reqtrace.Config{Uniform: 16, TopK: 8}
		}
		tr := kvcluster.Traffic{
			Replay: traces[i], Tenants: clusterTenants,
			Arrivals: workload.ArrivalConfig{Seed: streamSeed(seed, "tenants", rate)},
			Warmup:   clusterWarmup, Duration: rungWindow(rate),
		}
		var res kvcluster.Result
		start = time.Now()
		r.tr.span("kvcluster.Run", func() { res = kvcluster.Run(cfg, tr) })
		if resume.IsZero() {
			r.problem("rate %d: the cluster kernel never dispatched", rate)
			resume = start
		}
		r.addTimed(time.Since(resume))

		// Output checks: exact admission accounting, and every admitted
		// request completed (none lost in the drain).
		r.attempted += res.Offered
		if res.Admitted+res.Shed != res.Offered {
			r.failed += int64(math.Abs(float64(res.Offered - res.Admitted - res.Shed)))
			r.problem("rate %d: admitted %d + shed %d != offered %d", rate, res.Admitted, res.Shed, res.Offered)
		}
		if res.Done != res.Admitted {
			r.failed += res.Admitted - res.Done
			r.problem("rate %d: %d admitted requests never completed", rate, res.Admitted-res.Done)
		}
		if res.Offered == 0 {
			r.problem("rate %d: nothing offered", rate)
			continue
		}
		r.det[shedFracName(rate)] = float64(res.Shed) / float64(res.Offered)
		if sustained && float64(res.Good) >= sloAttain*float64(res.Offered) {
			r.det["max_rate_at_slo"] = float64(rate)
		} else {
			sustained = false
		}
		registryCounts(r, reg)
		if heavy {
			r.det["sim_ops_per_s"] = res.GoodputPerS
			r.det["sim_mean_ms"] = res.Latency.Mean
			r.det["sim_p99_ms"] = res.Latency.P99
			r.det["sim_p50_ms"] = res.Latency.Median
			r.det["sim_samples"] = float64(res.Latency.Count)
			r.exemplars = append(r.exemplars, res.Exemplars...)
		}
	}
}

// registryCounts adds one rung's per-layer counters, read from the
// observability registry every layer of the cluster registers into: the
// cluster builds its stack internally, so Stats() handles are out of reach.
func registryCounts(r *rep, reg *metrics.Registry) {
	v := map[string]float64{}
	for _, s := range reg.Snapshot() {
		v[s.Name] = s.Value
	}
	add := func(name string, x float64) { r.det[name] += x }
	add("sim.events", v["sim/dispatch.handler"]+v["sim/dispatch.goroutine"])
	add("sim.goroutine_events", v["sim/dispatch.goroutine"])
	add("sim.stale_events", v["sim/events.stale"])
	add("device.cmds", v["device/writes"]+v["device/reads"]+v["device/flushes"])
	add("device.flushes", v["device/flushes"])
	add("device.barriers", v["device/barriers"])
	add("blkmq.dispatched", v["blkmq/dispatched"])
	add("blkmq.spread", v["blkmq/spread"])
	add("jbd.commits", v["jbd/commits"])
	add("jbd.conflict_waits", v["jbd/conflict.parks"]+v["jbd/conflict.blocks"])
	add("kvwal.group_commits", v["kvwal/group.size.count"])
	add("kvwal.mutations", v["kvwal/group.size.count"]*v["kvwal/group.size.mean"])
	add("kvwal.wal_bytes", v["kvwal/wal.bytes"])
	add("kvwal.compactions", v["kvwal/compactions"])
}

func rungWindow(rate int) sim.Duration {
	if rate == clusterHeavyRate {
		return clusterHeavyWindow
	}
	return clusterWindow
}
