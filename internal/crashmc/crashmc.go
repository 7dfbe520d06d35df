// Package crashmc is the repository's crash-state model checker for the
// order-preserving IO stack. A crash point fixes one crash instant; the
// checker reasons about *every* persisted state the device's semantics
// admit there, not just the one the simulator happened to leave behind:
//
//  1. internal/device's CaptureConstraints records the volatile
//     writeback-cache contents plus the partial persistence order the
//     device contract imposes on them — per-stream epoch chains on barrier
//     devices (FUA and flush ordering fold into the durable base: a
//     completed FUA or flushed write is durable by definition), nothing at
//     all on legacy devices, a single full state under power-loss
//     protection.
//  2. The enumerator walks every downward-closed cut of that constraint
//     DAG (subset-hash dedup; image-level pruning collapses cuts that
//     materialize the same disk image), starting from the empty cut — the
//     recovered durable base, i.e. the image the simulated power failure
//     actually leaves. Above a configurable state cap it falls back to
//     deterministic seeded sampling and says so via Config.Log and
//     Result.Capped — never silently.
//  3. Each candidate image is materialized as a read overlay on the
//     recovered durable base, a filesystem view is rebuilt over it
//     (journal replay included), and pluggable Checkers audit the
//     invariants: fsync durability, barrier ordering, journal-replay
//     reach, fs metadata consistency, kvwal's durability/prefix audit.
//
// Scenario harnesses (scenario.go, cluster.go, rebalance.go) drive a
// workload to the crash point and hand it to ModelCheck; Sweep runs one
// scenario across many crash instants. On EXT4-nobarrier the checker
// reproduces the paper's motivating result as a positive finding:
// ordering-violation states are reachable.
package crashmc

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"

	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// State is one candidate post-crash disk image under audit.
type State struct {
	// Read returns the durable contents of an LPA in this state.
	Read jbd.ReadFn
	// View is the filesystem recovered over Read (journal replay overlaid
	// on in-place state).
	View *fs.View
	// ID compactly identifies the persisted volatile-write subset (hex
	// bitmask of write indices; "base" for the empty cut).
	ID string
}

// Violation is one invariant breach found in a candidate crash state.
type Violation struct {
	Checker string
	Kind    string // "durability", "ordering" or "consistency"
	State   string // State.ID of the image that exhibited it
	Detail  string
}

// Violation kinds.
const (
	KindDurability  = "durability"
	KindOrdering    = "ordering"
	KindConsistency = "consistency"
)

// Checker audits one candidate crash state. Implementations carry the
// host-side history (acknowledged writes, issue order, store shadows) they
// audit against; Check must be read-only and safe to call for many states.
type Checker interface {
	Name() string
	Check(st *State) []Violation
}

// Config tunes a model-checking run.
type Config struct {
	// CrashAt is the virtual crash instant (scenario harnesses).
	CrashAt sim.Time
	// Writes bounds the scenario workload's barrier-separated writes
	// (0 = keep writing until the crash). Bounding the workload keeps the
	// unconstrained (nobarrier) state space exhaustively enumerable.
	Writes int
	// MaxStates caps exhaustive enumeration; above it the checker falls
	// back to sampling. Default 1<<16.
	MaxStates int
	// Samples is the number of seeded random cuts probed after the cap is
	// hit. Default 512.
	Samples int
	// Seed drives the sampling fallback (deterministic across runs).
	Seed int64
	// Log receives the capped-state-space notice. Default log.Printf.
	Log func(format string, args ...any)
	// MaxViolationDetails bounds the retained Violation records (counts
	// are always exact). Default 64.
	MaxViolationDetails int
}

func (c Config) withDefaults() Config {
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 16
	}
	if c.Samples == 0 {
		c.Samples = 512
	}
	if c.Log == nil {
		c.Log = log.Printf
	}
	if c.MaxViolationDetails == 0 {
		c.MaxViolationDetails = 64
	}
	return c
}

// Result is the outcome of model-checking one crash instant.
type Result struct {
	Profile string
	CrashAt sim.Time

	Volatile int // volatile writes captured at the crash instant
	Streams  int // distinct streams among them

	// StatesExplored counts the distinct downward-closed cuts visited,
	// sampled ones included: exhaustive cuts + Sampled.
	StatesExplored int
	ImagesChecked  int  // distinct disk images audited (after pruning)
	Capped         bool // exhaustive enumeration hit MaxStates
	// Sampled is how many of StatesExplored the sampling fallback reached
	// after the cap (0 unless Capped).
	Sampled int

	Durability      int // violation counts by kind, across all images
	Ordering        int
	Consistency     int
	ViolationStates int         // images exhibiting at least one violation
	Violations      []Violation // first MaxViolationDetails records
}

// Ok reports whether no state violated any invariant.
func (r Result) Ok() bool { return r.Durability+r.Ordering+r.Consistency == 0 }

func (r Result) String() string {
	mode := "exhaustive"
	if r.Capped {
		mode = fmt.Sprintf("capped, %d of them sampled", r.Sampled)
	}
	status := "OK: no admissible crash state violates the invariants"
	if !r.Ok() {
		status = fmt.Sprintf("VIOLATIONS: %d durability / %d ordering / %d consistency in %d states",
			r.Durability, r.Ordering, r.Consistency, r.ViolationStates)
	}
	return fmt.Sprintf("%s crash@%v: %d volatile writes (%d streams), %d states / %d images (%s) — %s",
		r.Profile, r.CrashAt, r.Volatile, r.Streams, r.StatesExplored, r.ImagesChecked, mode, status)
}

// ModelCheck enumerates the admissible crash states of a captured
// constraint, materializes each distinct disk image over the durable base,
// and runs every checker against it. base is the recovered device's
// durable read function (device.Recover + DurableData); jcfg locates the
// journal for the per-image replay.
func ModelCheck(cons device.Constraint, base jbd.ReadFn, jcfg jbd.Config, checkers []Checker, cfg Config) Result {
	cfg = cfg.withDefaults()
	// Live-stats progress: a long crashmc sweep reports its enumeration
	// through the process-wide registry (nil-safe when none is installed).
	reg := metrics.Resolve(nil)
	obsStates := reg.Counter("crashmc/states")
	obsImages := reg.Counter("crashmc/images")
	res := Result{Volatile: len(cons.Writes)}
	streams := make(map[uint64]struct{})
	for _, w := range cons.Writes {
		streams[w.Stream] = struct{}{}
	}
	res.Streams = len(streams)

	n := len(cons.Writes)
	images := make(map[string]struct{})
	check := func(cut bitset) {
		obsStates.Inc()
		// The disk image is determined by the newest persisted write per
		// LPA; cuts with identical winner sets materialize identically and
		// are pruned.
		winners := make(map[uint64]int)
		for i := 0; i < n; i++ {
			if !cut.has(i) {
				continue
			}
			w := cons.Writes[i]
			if j, ok := winners[w.LPA]; !ok || cons.Writes[j].Seq < w.Seq {
				winners[w.LPA] = i
			}
		}
		sig := make([]int, 0, len(winners))
		for _, i := range winners {
			sig = append(sig, i)
		}
		sort.Ints(sig)
		var key []byte
		for _, i := range sig {
			key = binary.AppendUvarint(key, uint64(i))
		}
		if _, dup := images[string(key)]; dup {
			return
		}
		images[string(key)] = struct{}{}
		obsImages.Inc()

		overlay := make(map[uint64]any, len(winners))
		for lpa, i := range winners {
			overlay[lpa] = cons.Writes[i].Data
		}
		read := func(lpa uint64) (any, bool) {
			if d, ok := overlay[lpa]; ok {
				return d, true
			}
			return base(lpa)
		}
		st := &State{Read: read, View: fs.Recover(read, jcfg), ID: cut.id()}
		bad := false
		for _, c := range checkers {
			for _, v := range c.Check(st) {
				v.Checker = c.Name()
				v.State = st.ID
				bad = true
				switch v.Kind {
				case KindOrdering:
					res.Ordering++
				case KindConsistency:
					res.Consistency++
				default:
					res.Durability++
				}
				if len(res.Violations) < cfg.MaxViolationDetails {
					res.Violations = append(res.Violations, v)
				}
			}
		}
		if bad {
			res.ViolationStates++
		}
	}

	seen, capped := enumerate(n, cons.Preds, cfg.MaxStates, check)
	res.Capped = capped
	if capped {
		cfg.Log("crashmc: state space exceeds the %d-state cap (%d volatile writes); probing %d sampled cuts (seed %d)",
			cfg.MaxStates, n, cfg.Samples, cfg.Seed)
		res.Sampled = sample(n, cons.Preds, cfg.Samples, cfg.Seed, seen, check)
	}
	res.StatesExplored = len(seen)
	res.ImagesChecked = len(images)
	return res
}
