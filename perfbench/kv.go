package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// The kv workloads: kvwal on one NVMe-SSD stack, eight closed-loop clients
// each committing batches of four mutations (10% deletes, uniform keys over
// 4096) and reading one key with GetE every eight batches, so reads run
// beside writes, group commit, background compaction and (on BFS-DR) the
// periodic checkpoint fdatasync. kv-barrier runs it on BFS-DR, kv-flush on
// EXT4-DR: the same layers used differently (Dual-mode journaling and
// barrier dispatch against JBD2 and transfer-and-flush).
const (
	kvClients   = 8
	kvBatch     = 4
	kvKeys      = 4096
	kvDeletePct = 10
	kvGetEvery  = 8
	// kvWarmup runs the clients before statistics start, so the memtable
	// and WAL ring are in their steady cycle when measuring begins.
	kvWarmup = 10 * sim.Millisecond
	// kvSlice is the simulated time of one timed k.RunUntil step: short
	// enough that calibration slices between steps sample the machine's
	// speed all through the timed phase.
	kvSlice = 10 * sim.Millisecond
)

// kvStream is one client's pre-generated input: batch i is
// ops[i*kvBatch:(i+1)*kvBatch], and gets[j] is read after batch
// j*kvGetEvery+kvGetEvery-1.
type kvStream struct {
	ops  []kvwal.Op
	gets []string
}

// genKV generates the clients' inputs from the seed. The program receives
// only these streams.
func genKV(seed int64, clients, batches, keys, deletePct int) []kvStream {
	out := make([]kvStream, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(streamSeed(seed, "kv", c)))
		key := func() string { return fmt.Sprintf("k%05d", rng.Intn(keys)) }
		st := kvStream{ops: make([]kvwal.Op, 0, batches*kvBatch)}
		for b := 0; b < batches; b++ {
			for i := 0; i < kvBatch; i++ {
				kind := kvwal.Put
				if rng.Intn(100) < deletePct {
					kind = kvwal.Delete
				}
				st.ops = append(st.ops, kvwal.Op{Kind: kind, Key: key()})
			}
			if b%kvGetEvery == kvGetEvery-1 {
				st.gets = append(st.gets, key())
			}
		}
		out[c] = st
	}
	return out
}

// kvLoad drives pre-generated client streams through the public
// kvwal.Store API and records what the clients observe.
type kvLoad struct {
	streams     []kvStream
	measureFrom sim.Time
	smp         *reqtrace.Sampler // nil: request tracing off

	rec       *metrics.LatencyRecorder // commit latency: enqueue to group ack
	ops       int64                    // mutations acknowledged while measuring
	gets      int64
	getErrs   int64
	exhausted int // clients that ran out of input
}

func newKVLoad(streams []kvStream, smp *reqtrace.Sampler) *kvLoad {
	return &kvLoad{streams: streams, smp: smp, rec: metrics.NewLatencyRecorder("bench/kv")}
}

// spawn starts one closed-loop client per stream on an open store.
func (l *kvLoad) spawn(k *sim.Kernel, st *kvwal.Store) {
	for c := range l.streams {
		s := l.streams[c]
		k.SpawnIdx("bench/client", c, func(p *sim.Proc) {
			for b := 0; (b+1)*kvBatch <= len(s.ops); b++ {
				batch := s.ops[b*kvBatch : (b+1)*kvBatch]
				t0 := p.Now()
				tc := l.smp.Admit(t0)
				st.ApplyT(p, batch, tc)
				l.smp.Finish(tc, p.Now())
				if t0 >= l.measureFrom {
					l.ops += int64(len(batch))
					l.rec.Record(sim.Duration(p.Now() - t0))
				}
				if b%kvGetEvery == kvGetEvery-1 {
					l.gets++
					if _, _, err := st.GetE(p, s.gets[b/kvGetEvery]); err != nil {
						l.getErrs++
					}
				}
			}
			l.exhausted++
			for {
				p.Suspend()
			}
		})
	}
}

// simMetrics records the clients' simulated outcome over [measureFrom, end].
func (l *kvLoad) simMetrics(r *rep, end sim.Time) {
	sum := l.rec.Summarize()
	r.det["sim_ops_per_s"] = metrics.Rate(l.ops, sim.Duration(end-l.measureFrom))
	r.det["sim_mean_ms"] = sum.Mean
	r.det["sim_p99_ms"] = sum.P99
	r.det["sim_p50_ms"] = sum.Median
	r.det["sim_samples"] = float64(sum.Count)
	r.attempted += l.ops + l.gets
	r.failed += l.getErrs
	if l.getErrs > 0 {
		r.problem("%d GetE calls failed", l.getErrs)
	}
	if l.exhausted > 0 {
		r.problem("%d clients ran out of generated input before the window ended", l.exhausted)
	}
	if sum.Count == 0 {
		r.problem("no commit was acknowledged while measuring")
	}
}

// openStore opens a kvwal store on s during set-up: the kernel runs until
// Open returns.
func openStore(r *rep, k *sim.Kernel, s *core.Stack, cfg kvwal.Config) *kvwal.Store {
	var st *kvwal.Store
	var err error
	k.Spawn("bench/open", func(p *sim.Proc) { st, err = kvwal.Open(p, s, cfg) })
	r.setup("kvwal.Open", func() {
		for i := 0; st == nil && err == nil && i < 1000; i++ {
			k.RunUntil(k.Now().Add(sim.Millisecond))
		}
	})
	if err != nil {
		r.problem("kvwal.Open: %v", err)
	} else if st == nil {
		r.problem("kvwal.Open did not return within 1s of simulated time")
	}
	return st
}

// newStack builds a kernel and stack during set-up, with the rep's kernel
// stats attached.
func newStack(r *rep, prof core.Profile) (*sim.Kernel, *core.Stack) {
	var k *sim.Kernel
	var s *core.Stack
	r.setup("core.NewStack", func() {
		k = sim.NewKernel()
		s = core.NewStack(k, prof)
	})
	k.AttachStats(r.kstats)
	return k, s
}

// kvWorkload returns a kv workload on the given engine.
func kvWorkload(prof func(device.Config) core.Profile, window sim.Duration) func(r *rep, seed int64) {
	return func(r *rep, seed int64) {
		// Enough input for the fastest engine to keep every client busy for
		// the whole window several times over; running out is reported.
		batches := int(int64(window+kvWarmup)/int64(sim.Millisecond)) * 8
		var streams []kvStream
		gen := r.setup("workload.generate", func() { streams = genKV(seed, kvClients, batches, kvKeys, kvDeletePct) })
		r.host["workload.generate_s"] = gen.Seconds()
		p := prof(device.NVMeSSD())
		k, s := newStack(r, p)
		defer k.Close()
		st := openStore(r, k, s, kvwal.DefaultConfig())
		if st == nil {
			return
		}
		load := newKVLoad(streams, r.sampler())
		load.measureFrom = k.Now().Add(kvWarmup)
		load.spawn(k, st)
		end := load.measureFrom.Add(window)
		for t := k.Now(); t < end; {
			t = min(t.Add(kvSlice), end)
			r.timed("k.RunUntil", func() { k.RunUntil(t) })
		}
		load.simMetrics(r, end)
		r.exemplars = append(r.exemplars, load.smp.Take()...)
		stackCounts(r, s, load.measureFrom, end)
		storeCounts(r, st)

		// Output check: power-fail at the end of the window, recover, and
		// audit the store: every acknowledged-durable mutation must survive
		// and, on the barrier engine, WAL groups must persist in order.
		s.Crash()
		var view *fs.View
		k.Spawn("bench/recover", func(p *sim.Proc) {
			r.tr.span("Stack.RecoverView", func() { view, _ = s.RecoverView(p) })
		})
		k.Run()
		if view == nil {
			r.problem("recovery did not finish")
			return
		}
		var dur, ord []string
		r.tr.span("Store.Recover/Audit", func() { dur, ord = st.Audit(st.Recover(view)) })
		r.failed += int64(len(dur) + len(ord))
		for _, v := range append(dur, ord...) {
			r.problem("audit: %s", v)
		}
	}
}

// stackCounts adds one stack's per-layer counters to the rep's
// deterministic results (summing over the rep's stacks).
func stackCounts(r *rep, s *core.Stack, from, to sim.Time) {
	add := func(name string, v float64) { r.det[name] += v }
	ds := s.Dev.Stats()
	add("device.cmds", float64(ds.Writes+ds.Reads+ds.Flushes))
	add("device.flushes", float64(ds.Flushes))
	add("device.barriers", float64(ds.Barriers))
	add("device.busy_rejects", float64(ds.BusyRejects))
	if to > from {
		r.det["device.mean_qd"] = s.Dev.QDSeries().Mean(from, to)
	}
	ns := s.Dev.Array().Stats()
	add("nand.programs", float64(ns.Programs))
	add("nand.erases", float64(ns.Erases))
	fst := s.Dev.FTL().Stats()
	add("ftl.host_appends", float64(fst.HostAppends))
	add("ftl.gc_appends", float64(fst.GCAppends))
	add("ftl.gc_runs", float64(fst.GCRuns))
	add("ftl.stalls", float64(fst.Stalls))
	if s.Layer != nil {
		ls := s.Layer.Stats()
		add("block.dispatched", float64(ls.Dispatched))
		r.det["block.staged_peak"] = max(r.det["block.staged_peak"], float64(ls.StagedPeak))
	}
	if s.MQ != nil {
		ms := s.MQ.Stats()
		add("blkmq.dispatched", float64(ms.Dispatched))
		add("blkmq.spread", float64(ms.Spread))
		r.det["blkmq.staged_peak"] = max(r.det["blkmq.staged_peak"], float64(ms.StagedPeak))
	}
	js := s.FS.Journal().Stats()
	add("jbd.commits", float64(js.Commits))
	add("jbd.pages_logged", float64(js.PagesLogged))
	add("jbd.flushes", float64(js.Flushes))
	add("jbd.conflict_waits", float64(js.ConflictBlocks+js.ConflictParked))
	add("jbd.checkpoint_force", float64(js.CheckpointForce))
	fss := s.FS.Stats()
	add("fs.fdatasyncs", float64(fss.Fdatasyncs))
	add("fs.fdatabarriers", float64(fss.Fdatabarriers))
	add("fs.pages_written", float64(fss.PagesWritten))
}

// storeCounts adds one kvwal store's counters.
func storeCounts(r *rep, st *kvwal.Store) {
	ks := st.Stats()
	r.det["kvwal.mutations"] += float64(ks.Puts + ks.Deletes)
	// One 4 KiB page per WAL record, as the store's own wal.bytes counter.
	r.det["kvwal.wal_bytes"] += 4096 * float64(ks.WALRecords)
	r.det["kvwal.group_commits"] += float64(ks.GroupCommits)
	r.det["kvwal.checkpoint_syncs"] += float64(ks.CheckpointSyncs)
	r.det["kvwal.compactions"] += float64(ks.Compactions)
}
