package crashmc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// Crash sweeps: one scenario model-checked at several crash instants. Each
// point is capped lower than the repository's sweeps (repro crash, the kv
// experiment) cap theirs, to keep the suite fast; the durable base — the
// image the simulated power failure leaves — is always among the states.

func times(us ...int) []sim.Time {
	var out []sim.Time
	for _, u := range us {
		out = append(out, at(u))
	}
	return out
}

func sweepCfg(t *testing.T) Config {
	return Config{MaxStates: 64, Samples: 8, Log: func(f string, a ...any) { t.Logf(f, a...) }}
}

func kvScenario(clients int) func(core.Profile, Config) Result {
	return func(prof core.Profile, cfg Config) Result { return KVScenario(prof, clients, cfg) }
}

// sweepClean model-checks scenario on prof at each crash instant (µs) and
// fails on any violation in any checked state.
func sweepClean(t *testing.T, prof core.Profile, scenario func(core.Profile, Config) Result, us ...int) {
	t.Helper()
	for _, res := range Sweep(prof, times(us...), sweepCfg(t), scenario) {
		if res.Ok() {
			continue
		}
		for _, v := range res.Violations {
			t.Errorf("%s crash@%v: [%s/%s] %s %s", res.Profile, res.CrashAt, v.Checker, v.Kind, v.State, v.Detail)
		}
		t.Errorf("%v", res)
	}
}

func TestDurabilityEXT4(t *testing.T) {
	sweepClean(t, core.EXT4DR(device.PlainSSD()), DurabilityScenario, 500, 2500, 9000, 30000)
}

func TestDurabilityBarrierFS(t *testing.T) {
	sweepClean(t, core.BFSDR(device.PlainSSD()), DurabilityScenario, 500, 2500, 9000, 30000)
}

func TestDurabilityBarrierFSOnUFS(t *testing.T) {
	sweepClean(t, core.BFSDR(device.UFS()), DurabilityScenario, 1000, 5000, 20000)
}

func TestDurabilitySupercap(t *testing.T) {
	sweepClean(t, core.BFSDR(device.SupercapSSD()), DurabilityScenario, 500, 2500, 9000)
}

// TestDurabilityMQ and TestOrderingMQ run the standard sweeps on the MQ
// stacks: the multi-queue layer must meet the same contracts as the
// single-queue one.
func TestDurabilityMQ(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		sweepClean(t, mk(device.NVMeSSD()), DurabilityScenario, 500, 2500, 9000, 30000)
	}
}

func TestOrderingMQ(t *testing.T) {
	sweepClean(t, core.BFSMQ(device.NVMeSSD()), OrderingScenario, 300, 900, 2000, 4500, 9000, 15000, 25000)
}

func TestOrderingBarrierFS(t *testing.T) {
	// fdatabarrier on a barrier-enabled stack: every checked state must be
	// an epoch prefix.
	sweepClean(t, core.BFSOD(device.PlainSSD()), OrderingScenario, 300, 900, 2000, 4500, 9000, 15000, 25000, 40000)
}

func TestOrderingBarrierFSOnUFS(t *testing.T) {
	sweepClean(t, core.BFSOD(device.UFS()), OrderingScenario, 1000, 3000, 8000, 20000, 50000)
}

func TestOrderingEXT4DRHoldsViaFlush(t *testing.T) {
	// EXT4-DR's fdatabarrier degrades to fdatasync (transfer-and-flush), so
	// ordering must hold there too — just expensively.
	sweepClean(t, core.EXT4DR(device.PlainSSD()), OrderingScenario, 2000, 9000, 30000)
}

func TestOrderingEXT4NobarrierCanViolate(t *testing.T) {
	// The motivating failure: EXT4-OD on a legacy (non-barrier) device
	// provides no durability or ordering guarantee. Every crash point must
	// admit a violating state, and the sweep must reach a reordered one;
	// all-clean would mean the legacy model is too kind.
	prof := core.EXT4OD(device.LegacySSD())
	ordering := 0
	for _, res := range Sweep(prof, times(1500, 3000, 5000, 8000, 12000, 20000, 30000, 45000, 70000, 100000),
		sweepCfg(t), OrderingScenario) {
		if res.Ok() {
			t.Errorf("%v: the unsafe baseline admits no violating state", res)
		}
		ordering += res.Ordering
	}
	if ordering == 0 {
		t.Error("EXT4-OD on a legacy device never violated ordering across 10 crash points; " +
			"the unsafe baseline is not exercising reordering")
	}
}

// TestKVCrashSweep checks crash points on all four kv stack profiles with
// concurrent group-committing clients: zero acknowledged-but-lost keys,
// and (on the barrier engines) group-prefix ordering.
func TestKVCrashSweep(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	} {
		sweepClean(t, mk(device.NVMeSSD()), kvScenario(4), 700, 2000, 4500, 9000, 20000, 45000)
	}
}

// TestKVCrashSingleClient pins the degenerate no-grouping case (every batch
// is its own group) across crash points on both engines.
func TestKVCrashSingleClient(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR} {
		sweepClean(t, mk(device.PlainSSD()), kvScenario(1), 1500, 8000, 30000)
	}
}

// TestKVFdatasyncWaitsForCommittingInode pins fdatasync on a file whose
// new inode sits frozen in a committing, not yet durable, transaction: the
// inode is not pending, but fdatasync must still wait for that
// transaction. Without the wait, kvwal publishes a manifest naming a
// segment whose inode never became durable, and the audit reports the
// segment unrecoverable at these instants.
func TestKVFdatasyncWaitsForCommittingInode(t *testing.T) {
	sweepClean(t, core.EXT4DR(device.NVMeSSD()), kvScenario(4), 11000, 21000, 26000)
	sweepClean(t, core.EXT4MQ(device.NVMeSSD()), kvScenario(4), 29000, 38400)
}

func TestSweepEmptyTimes(t *testing.T) {
	// An empty crash-time slice is a no-op sweep, not a panic.
	prof := core.EXT4DR(device.PlainSSD())
	if got := Sweep(prof, nil, sweepCfg(t), DurabilityScenario); len(got) != 0 {
		t.Fatalf("empty durability sweep returned %d results", len(got))
	}
	if got := Sweep(prof, []sim.Time{}, sweepCfg(t), OrderingScenario); len(got) != 0 {
		t.Fatalf("empty ordering sweep returned %d results", len(got))
	}
}

func TestSweepAllOkRendering(t *testing.T) {
	// Every result of a clean sweep must render as OK and carry its crash
	// time through, in times order.
	ts := times(500, 2500)
	res := Sweep(core.BFSDR(device.PlainSSD()), ts, sweepCfg(t), DurabilityScenario)
	if len(res) != len(ts) {
		t.Fatalf("got %d results for %d times", len(res), len(ts))
	}
	for i, r := range res {
		if !r.Ok() {
			t.Fatalf("%v: unexpected violations %v", r, r.Violations)
		}
		if r.CrashAt != ts[i] {
			t.Errorf("result %d: crash time %v, want %v", i, r.CrashAt, ts[i])
		}
		if s := r.String(); !strings.Contains(s, "OK") || strings.Contains(s, "VIOLATIONS") {
			t.Errorf("clean result renders as %q", s)
		}
	}
}

// TestDurabilityBarrierFSOnUFSPendingAppend pins the device durability fix
// for writeback entries whose FTL append is still pending: the reaper
// retired such an entry as durable (its append index read 0), a flush
// returned before the page reached NAND, and a crash lost the fsync-acked
// page. BFS-DR on UFS hits it densely around 200 ms, where 68 of these 101
// instants (4 µs apart) lost an acknowledged write.
func TestDurabilityBarrierFSOnUFSPendingAppend(t *testing.T) {
	var us []int
	for u := 199700; u <= 200100; u += 4 {
		us = append(us, u)
	}
	sweepClean(t, core.BFSDR(device.UFS()), DurabilityScenario, us...)
}
