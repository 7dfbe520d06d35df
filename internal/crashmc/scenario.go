package crashmc

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/jbd"
	"repro/internal/kvwal"
	"repro/internal/par"
	"repro/internal/sim"
)

// Scenario harnesses: each drives a workload on a live stack to the crash
// instant and hands the stack to crashAndCheck, the one crash-point
// harness, which captures the device's persistence constraints, recovers
// the durable base and model-checks every admissible crash state. Sweep
// runs a scenario across many crash instants.
//
// Callers that need exhaustive enumeration on unconstrained (nobarrier)
// profiles should bound the workload (Config.Writes) and shrink the
// journal window in the profile (jbd scan cost is paid once per candidate
// image). Sweeps over long runs bound each point with Config.MaxStates and
// Config.Samples instead.

// OrderingPages is the file size (in pages) of the ordering scenario;
// page 0 is left untouched as a recovery anchor.
const OrderingPages = 4

// CompactJournal shrinks a profile's journal window to pages slots (with
// a proportional checkpoint low-water mark). Every candidate image pays
// one full journal-window scan during replay, so model-checking workloads
// want the window sized to the workload rather than the 8192-page
// default. The canonical ordering scenarios use 128; kv workloads need a
// few hundred.
func CompactJournal(prof core.Profile, pages int) core.Profile {
	prof.FS.Journal.Pages = pages
	prof.FS.Journal.CheckpointLow = pages / 16
	return prof
}

// OrderingWorkload is a handle on the §4.1 barrier-ordering codelet, the
// workload OrderingScenario model-checks.
type OrderingWorkload struct {
	File string
	// Pages is the file size; page 0 is an untouched recovery anchor.
	Pages int64
	// Synced records the page versions acknowledged by the preallocation
	// fsync; Issued records the barrier-separated overwrites in order.
	Synced []AckedWrite
	Issued []IssuedWrite
}

// SpawnOrderingWorkload starts the §4.1 codelet on a live stack:
// preallocate pages 0..pages-1 of a file, fsync (recording acknowledged
// versions), then overwrite pages 1..pages-1 round-robin with an
// fdatabarrier between consecutive writes, recording issue order. writes
// bounds the overwrites (0 = keep writing until the crash); bounding
// keeps an unconstrained (nobarrier) state space exhaustively enumerable.
func SpawnOrderingWorkload(k *sim.Kernel, s *core.Stack, pages int64, writes int) *OrderingWorkload {
	w := &OrderingWorkload{File: "ordered.dat", Pages: pages}
	k.Spawn("writer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), w.File)
		if err != nil {
			panic(err)
		}
		for i := int64(0); i < pages; i++ {
			s.FS.Write(p, f, i)
		}
		s.FS.Fsync(p, f)
		for i := int64(0); i < pages; i++ {
			ver, _ := s.FS.Read(p, f, i)
			w.Synced = append(w.Synced, AckedWrite{Idx: i, Ver: ver})
		}
		for n := int64(0); ; n++ {
			if writes > 0 && n == int64(writes) {
				for {
					p.Suspend() // workload bounded: idle until the crash
				}
			}
			idx := 1 + n%(pages-1)
			s.FS.Write(p, f, idx)
			ver, _ := s.FS.Read(p, f, idx)
			w.Issued = append(w.Issued, IssuedWrite{Page: idx, Ver: ver})
			s.FS.Fdatabarrier(p, f)
		}
	})
	return w
}

// Checkers returns the workload's invariant auditors: fsync durability of
// the preallocation, barrier ordering of the overwrites, journal-replay
// reach and fs metadata consistency.
func (w *OrderingWorkload) Checkers(s *core.Stack) []Checker {
	return []Checker{
		&DurabilityChecker{FS: s.FS, File: w.File, Synced: w.Synced},
		&OrderingChecker{FS: s.FS, File: w.File, Pages: w.Pages, Issued: w.Issued},
		&JournalChecker{J: s.FS.Journal()},
		&FSChecker{FS: s.FS},
	}
}

// OrderingScenario is the §4.1 codelet under the model checker: it drives
// SpawnOrderingWorkload to the crash instant and audits the workload's
// checkers across every admissible crash state.
func OrderingScenario(prof core.Profile, cfg Config) Result {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	w := SpawnOrderingWorkload(k, s, OrderingPages, cfg.Writes)
	k.RunUntil(cfg.CrashAt)
	return crashAndCheck(k, s, cfg, w.Checkers(s))
}

// DurabilityScenario is the fsync contract under the model checker: one
// writer writes page i of a file, fsyncs and records the acknowledged
// version, forever. At the crash instant it audits fsync durability of
// every acknowledged write, journal-replay reach and fs metadata
// consistency across every admissible crash state.
func DurabilityScenario(prof core.Profile, cfg Config) Result {
	const file = "durable.dat"
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	var synced []AckedWrite
	k.Spawn("writer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), file)
		if err != nil {
			panic(err)
		}
		for i := int64(0); ; i++ {
			s.FS.Write(p, f, i)
			s.FS.Fsync(p, f)
			ver, _ := s.FS.Read(p, f, i)
			synced = append(synced, AckedWrite{Idx: i, Ver: ver})
		}
	})
	k.RunUntil(cfg.CrashAt)
	return crashAndCheck(k, s, cfg, []Checker{
		&DurabilityChecker{FS: s.FS, File: file, Synced: synced},
		&JournalChecker{J: s.FS.Journal()},
		&FSChecker{FS: s.FS},
	})
}

// PLPFailureDevice installs the PLP-failure fault plan on a supercap
// device: at power loss the cache drains only a transfer-order prefix, so
// CaptureConstraints hands the model checker a partial-drain chain (every
// prefix admissible) instead of PLP's single fully-drained state. The
// concrete drain fraction is left at zero on purpose — a nonzero drain
// would fold one arbitrary prefix into the recovered base and silently
// shrink the state space the checker audits.
func PLPFailureDevice(dev device.Config, seed uint64) device.Config {
	dev.Fault = &fault.Plan{Seed: seed, PLPFailure: true}
	return dev
}

// KVWorkload is a handle on the canonical kvwal crash workload, the
// workload KVScenario model-checks.
type KVWorkload struct {
	st *kvwal.Store
}

// Store returns the opened store, or nil while (or if) the crash landed
// inside Open — in which case nothing was ever acknowledged and every
// recovered image is trivially consistent.
func (w *KVWorkload) Store() *kvwal.Store { return w.st }

// SpawnKVWorkload starts the canonical kv crash workload on a live stack:
// an opener plus `clients` concurrent committers applying small random
// batches (fixed per-client seeds; 15% deletes over a 512-key space).
func SpawnKVWorkload(k *sim.Kernel, s *core.Stack, clients int) *KVWorkload {
	w := &KVWorkload{}
	k.Spawn("kv/setup", func(p *sim.Proc) {
		cfg := kvwal.Config{WALPages: 128, MemtableCap: 32, CompactFanIn: 3, CheckpointEvery: 8}
		st, err := kvwal.Open(p, s, cfg)
		if err != nil {
			panic(err)
		}
		w.st = st
	})
	for c := 0; c < clients; c++ {
		c := c
		k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(41 + c)))
			for w.st == nil {
				p.Sleep(sim.Millisecond)
			}
			for {
				ops := make([]kvwal.Op, 3)
				for i := range ops {
					kind := kvwal.Put
					if rng.Intn(100) < 15 {
						kind = kvwal.Delete
					}
					ops[i] = kvwal.Op{Kind: kind, Key: fmt.Sprintf("k%04d", rng.Intn(512))}
				}
				w.st.Apply(p, ops)
			}
		})
	}
	return w
}

// KVScenario drives the kvwal store with concurrent committing clients
// (SpawnKVWorkload) and model-checks the store's durability/prefix-ordering
// audit plus the journal and fs invariants across every admissible crash
// state at the crash instant.
func KVScenario(prof core.Profile, clients int, cfg Config) Result {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	w := SpawnKVWorkload(k, s, clients)
	k.RunUntil(cfg.CrashAt)
	st := w.Store()
	if st == nil {
		// The crash landed inside Open: nothing was ever acknowledged, so
		// every admissible state is trivially consistent. The clients are
		// still poll-sleeping for readiness; Close reaps them.
		return Result{Profile: prof.Name, CrashAt: cfg.CrashAt}
	}
	return crashAndCheck(k, s, cfg, []Checker{
		&KVChecker{Store: st},
		&JournalChecker{J: s.FS.Journal()},
		&FSChecker{FS: s.FS},
	})
}

// crashAndCheck is the crash-point harness every scenario shares. With the
// workload run to cfg.CrashAt, it captures the device's persistence
// constraints, power-fails the device, powers it back on (FTL mount-time
// recovery) to get the durable base every candidate cut overlays, and
// model-checks every admissible crash state against the checkers, which
// carry the workload's host-side history up to the crash.
func crashAndCheck(k *sim.Kernel, s *core.Stack, cfg Config, checkers []Checker) Result {
	cons := s.Dev.CaptureConstraints()
	s.Crash()
	var base jbd.ReadFn
	k.Spawn("recover", func(p *sim.Proc) {
		base = device.Recover(p, s.Dev).DurableData
	})
	k.Run()
	res := ModelCheck(cons, base, s.Profile.FS.Journal, checkers, cfg)
	res.Profile = s.Profile.Name
	res.CrashAt = cfg.CrashAt
	return res
}

// Sweep model-checks scenario on prof at each crash instant in times.
// cfg bounds every point (MaxStates, Samples); its CrashAt is replaced
// per point. Each point owns a private kernel, so the sweep fans out
// across CPUs; results come back in times order.
func Sweep(prof core.Profile, times []sim.Time, cfg Config, scenario func(core.Profile, Config) Result) []Result {
	out := make([]Result, len(times))
	par.For(len(times), func(i int) {
		c := cfg
		c.CrashAt = times[i]
		out[i] = scenario(prof, c)
	})
	return out
}
