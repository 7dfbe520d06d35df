package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The crash-check workload: the crash-state model checker (crashmc)
// enumerating every admissible crash state of
//
//   - the §4.1 ordering codelet on EXT4-DR, BFS-DR, EXT4-MQ and BFS-MQ,
//     each at two crash instants, plus EXT4 mounted nobarrier on a legacy
//     device as the negative control, which must show violations;
//   - one kvwal cell: kv-barrier-shaped clients over 512 hot keys on
//     BFS-DR, crashed after 30 ms of simulated load;
//   - a three-shard kvcluster with two shards killed mid-replay.
//
// Host time here goes to enumeration, journal replay and fresh-stack
// set-up; the device does almost no dispatch. The kv and cluster cells are
// capped (crashmc.Config.MaxStates), so their cost stays bounded; a capped
// cell probes seeded sample cuts past the cap and is counted in
// crashmc.capped_cells.

// crashCell is one model-checking cell.
type crashCell struct {
	label string
	// mustViolate marks the negative control: the cell must have at least
	// one violating image. Every other cell must be clean.
	mustViolate bool
	// maxStates caps the cell's exhaustive enumeration; past it the cell
	// probes cappedSamples seeded cuts.
	maxStates int
	run       func(r *rep, seed int64, cfg crashmc.Config) crashmc.Result
}

const (
	orderingStates   = 1 << 14
	kvCellStates     = 512
	clusterCellState = 512
	cappedSamples    = 32
)

func at(us int) sim.Time { return sim.Time(sim.Duration(us) * sim.Microsecond) }

func compact(p core.Profile) core.Profile { return crashmc.CompactJournal(p, 128) }

// crashCells returns the workload's cells in run order.
func crashCells() []crashCell {
	var cells []crashCell
	for _, c := range []struct {
		label   string
		prof    core.Profile
		writes  int
		control bool
	}{
		{"EXT4-DR", compact(core.EXT4DR(device.PlainSSD())), 0, false},
		{"EXT4-nobarrier", compact(core.EXT4OD(device.LegacySSD())), 3, true},
		{"BFS-DR", compact(core.BFSDR(device.PlainSSD())), 0, false},
		{"EXT4-MQ", compact(core.EXT4MQ(device.PlainSSD())), 0, false},
		{"BFS-MQ", compact(core.BFSMQ(device.PlainSSD())), 0, false},
	} {
		for _, us := range []int{1200, 2500} {
			cells = append(cells, orderingCell(fmt.Sprintf("ordering/%s@%dus", c.label, us), c.prof, c.writes, at(us), c.control))
		}
	}
	cells = append(cells, crashCell{label: "kvwal/BFS-DR", maxStates: kvCellStates, run: kvCell})
	for shard := 0; shard < 2; shard++ {
		cells = append(cells, clusterCell(shard))
	}
	return cells
}

// orderingCell runs the ordering codelet to the crash instant and model
// checks it. writes bounds the codelet (0 = write until the crash).
func orderingCell(label string, prof core.Profile, writes int, crashAt sim.Time, control bool) crashCell {
	return crashCell{label: label, mustViolate: control, maxStates: orderingStates, run: func(r *rep, _ int64, cfg crashmc.Config) crashmc.Result {
		k, s := newStack(r, prof)
		defer k.Close()
		var w *crashmc.OrderingWorkload
		r.timed("k.RunUntil", func() {
			w = crashmc.SpawnOrderingWorkload(k, s, crashmc.OrderingPages, writes)
			k.RunUntil(crashAt)
		})
		return crashAndCheck(r, k, s, prof.FS.Journal, w.Checkers(s), cfg)
	}}
}

// kvCell crashes the kv-barrier clients on BFS-DR after kvCellLoad of
// simulated load. Its clients also give crash-check its simulated
// end-to-end metrics.
func kvCell(r *rep, seed int64, cfg crashmc.Config) crashmc.Result {
	const kvCellLoad, kvCellKeys, kvCellDeletePct = 30 * sim.Millisecond, 512, 15
	prof := crashmc.CompactJournal(core.BFSDR(device.NVMeSSD()), 512)
	var streams []kvStream
	gen := r.setup("workload.generate", func() {
		streams = genKV(seed, kvClients, int(kvCellLoad/sim.Millisecond)*8, kvCellKeys, kvCellDeletePct)
	})
	r.host["workload.generate_s"] += gen.Seconds()
	k, s := newStack(r, prof)
	defer k.Close()
	st := openStore(r, k, s, kvwal.DefaultConfig())
	if st == nil {
		return crashmc.Result{}
	}
	load := newKVLoad(streams, r.sampler())
	load.measureFrom = k.Now().Add(kvWarmup)
	crashAt := k.Now().Add(kvCellLoad)
	load.spawn(k, st)
	r.timed("k.RunUntil", func() {
		k.RunUntil(crashAt)
		runToVolatile(k, s)
	})
	load.simMetrics(r, k.Now())
	r.exemplars = append(r.exemplars, load.smp.Take()...)
	checkers := []crashmc.Checker{
		&crashmc.KVChecker{Store: st},
		&crashmc.JournalChecker{J: s.FS.Journal()},
		&crashmc.FSChecker{FS: s.FS},
	}
	return crashAndCheck(r, k, s, prof.FS.Journal, checkers, cfg)
}

// clusterCell kills one shard of a three-shard kvcluster (ShardedStacks
// shape: one stack per shard) mid-replay of its routed slice of seeded
// traffic, and audits every admissible crash state with the cluster
// checker. Shards never couple through a checked invariant, so checking
// each killed shard on its own covers the cluster's crash states.
func clusterCell(shard int) crashCell {
	return crashCell{label: fmt.Sprintf("kvcluster/BFS-DR/shard%d", shard), maxStates: clusterCellState, run: func(r *rep, seed int64, cfg crashmc.Config) crashmc.Result {
		const shards, crashAfter = 3, 20 * sim.Millisecond
		prof := crashmc.CompactJournal(core.BFSDR(device.PlainSSD()), 512)
		var ring *kvcluster.Ring
		var parts [][]kvcluster.Request
		gen := r.setup("Traffic.Generate", func() {
			ring = kvcluster.NewRing(shards, 64)
			tr := kvcluster.Traffic{
				Arrivals:  workload.ArrivalConfig{RatePerS: 200_000, Seed: streamSeed(seed, "crash-cluster", 0)},
				Mix:       workload.Mix{ReadPct: 10, DeletePct: 15},
				KeySpace:  512,
				ZipfTheta: 0.9,
				Duration:  50 * sim.Millisecond,
			}
			parts = kvcluster.Partition(tr.Generate(), ring)
		})
		r.host["workload.generate_s"] += gen.Seconds()
		reqs := parts[shard]
		k, s := newStack(r, prof)
		defer k.Close()
		st := openStore(r, k, s, kvwal.Config{WALPages: 128, MemtableCap: 32, CompactFanIn: 3, CheckpointEvery: 8})
		if st == nil {
			return crashmc.Result{}
		}
		// Closed-loop replay of the shard's routed slice, cycling so the
		// stream outlasts the crash instant; writes commit in batches of 3.
		k.Spawn("bench/replay", func(p *sim.Proc) {
			var batch []kvwal.Op
			for n := 0; len(reqs) > 0; n++ {
				q := reqs[n%len(reqs)]
				switch q.Class {
				case workload.ClassGet:
					st.Get(p, q.Key)
				case workload.ClassDelete:
					batch = append(batch, kvwal.Op{Kind: kvwal.Delete, Key: q.Key})
				default:
					batch = append(batch, kvwal.Op{Kind: kvwal.Put, Key: q.Key})
				}
				if len(batch) >= 3 {
					st.Apply(p, batch)
					batch = nil
				}
			}
		})
		crashAt := k.Now().Add(crashAfter)
		r.timed("k.RunUntil", func() {
			k.RunUntil(crashAt)
			runToVolatile(k, s)
		})
		checkers := []crashmc.Checker{
			&crashmc.ClusterChecker{Ring: ring, Shard: shard, Store: st},
			&crashmc.JournalChecker{J: s.FS.Journal()},
			&crashmc.FSChecker{FS: s.FS},
		}
		return crashAndCheck(r, k, s, prof.FS.Journal, checkers, cfg)
	}}
}

// minVolatile is the volatile-write count the kv and cluster cells crash
// at: from their nominal crash instant the kernel steps on until the
// device cache holds at least this many volatile writes, so every seed
// gives a state space past the cell's cap and the cell's cost does not
// swing with where the seed's traffic happens to leave the cache.
const minVolatile = 48

func runToVolatile(k *sim.Kernel, s *core.Stack) {
	for i := 0; i < 400 && len(s.Dev.CaptureConstraints().Writes) < minVolatile; i++ {
		k.RunUntil(k.Now().Add(100 * sim.Microsecond))
	}
}

// crashAndCheck captures the device's persistence constraints at the
// current instant, power-fails it, recovers the durable base and model
// checks every admissible crash state.
func crashAndCheck(r *rep, k *sim.Kernel, s *core.Stack, jcfg jbd.Config, checkers []crashmc.Checker, cfg crashmc.Config) crashmc.Result {
	var cons device.Constraint
	var base jbd.ReadFn
	r.timed("CaptureConstraints", func() {
		cons = s.Dev.CaptureConstraints()
		s.Crash()
	})
	rec := r.timed("device.Recover", func() {
		k.Spawn("bench/recover", func(p *sim.Proc) { base = device.Recover(p, s.Dev).DurableData })
		k.Run()
	})
	r.host["crashmc.recover_s"] += rec.Seconds()
	stackCounts(r, s, 0, 0)
	if base == nil {
		r.problem("device recovery did not finish")
		return crashmc.Result{}
	}
	if r.tr != nil {
		for i, c := range checkers {
			checkers[i] = timedChecker{Checker: c, tr: r.tr, span: "Checker.Check/" + c.Name()}
		}
	}
	var res crashmc.Result
	mc := r.timed("crashmc.ModelCheck", func() { res = crashmc.ModelCheck(cons, base, jcfg, checkers, cfg) })
	r.host["crashmc.modelcheck_s"] += mc.Seconds()
	return res
}

// timedChecker decorates a Checker with a host-time span per Check call.
type timedChecker struct {
	crashmc.Checker
	tr   *tracer
	span string
}

func (c timedChecker) Check(st *crashmc.State) (v []crashmc.Violation) {
	c.tr.span(c.span, func() { v = c.Checker.Check(st) })
	return v
}

// runCrashCells runs cells in order and applies the workload's output
// checks: every protected cell is clean, and every control cell violates.
func runCrashCells(r *rep, seed int64, cells []crashCell) {
	for _, c := range cells {
		cfg := crashmc.Config{
			MaxStates: c.maxStates, Samples: cappedSamples, Seed: seed,
			Log: func(format string, args ...any) { r.note(c.label+": "+format, args...) },
		}
		res := c.run(r, seed, cfg)
		r.note("%s: %d volatile writes, %d states, %d images, capped %v, %d violating images",
			c.label, res.Volatile, res.StatesExplored+res.Sampled, res.ImagesChecked, res.Capped, res.ViolationStates)
		r.det["crashmc.states"] += float64(res.StatesExplored + res.Sampled)
		r.det["crashmc.images"] += float64(res.ImagesChecked)
		if res.Capped {
			r.det["crashmc.capped_cells"]++
		}
		switch {
		case c.mustViolate:
			if res.ViolationStates == 0 {
				r.problem("%s: the negative control has no violating crash state; the checkers do not bite", c.label)
			}
		default:
			r.attempted += int64(res.ImagesChecked)
			r.failed += int64(res.ViolationStates)
			if res.ViolationStates > 0 {
				r.problem("%s: %d of %d images violate (%d durability, %d ordering, %d consistency)",
					c.label, res.ViolationStates, res.ImagesChecked, res.Durability, res.Ordering, res.Consistency)
			}
		}
	}
}

func runCrash(r *rep, seed int64) { runCrashCells(r, seed, crashCells()) }
