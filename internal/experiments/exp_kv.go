package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/kvwal"
	"repro/internal/par"
	"repro/internal/sim"
)

// KVRow is one point of the key-value group-commit sweep: acknowledged
// mutations per second and client-observed commit-latency percentiles for
// one (stack profile, client count) pair.
type KVRow struct {
	Config    string
	Clients   int
	OpsPerS   float64
	GroupMean float64 // mutations amortized per group commit
	P50       float64 // msec
	P99       float64
	P999      float64
}

// KVCrashRow is one profile's crash sweep outcome.
type KVCrashRow struct {
	Config     string
	Trials     int
	Violations int
	Capped     int // points whose state space hit the per-point cap
}

// KVResult is the kvwal application experiment: the throughput/latency
// matrix plus the crash-consistency sweep.
type KVResult struct {
	Rows  []KVRow
	Crash []KVCrashRow
}

// KV runs the barrier-enabled KV store experiment: concurrent clients
// group-committing Put/Delete batches on EXT4-DR, BFS-DR and their
// multi-queue variants. On the EXT4 engines every group pays one
// Transfer-and-Flush fdatasync; on the BarrierFS engines the group is
// ordered with one fdatabarrier and durability rides the periodic
// checkpoint — the application-level payoff of §4's dual-mode journaling,
// measured end to end through group commit, memtable flush and compaction.
// The crash sweep then audits that the cheap commits gave nothing away:
// zero acknowledged-but-lost keys, and group-prefix ordering on the
// barrier engines.
func KV(scale Scale) KVResult {
	dur := scale.dur(30*sim.Millisecond, 150*sim.Millisecond)
	clientCounts := []int{2, 8}
	if scale == Full {
		clientCounts = []int{1, 4, 8, 16}
	}
	profiles := []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	}
	var out KVResult
	out.Rows = make([]KVRow, len(clientCounts)*len(profiles))
	par.For(len(out.Rows), func(i int) {
		clients := clientCounts[i/len(profiles)]
		prof := profiles[i%len(profiles)](device.NVMeSSD())
		k := newKernel(fmt.Sprintf("kv/%s/c%d", prof.Name, clients))
		defer k.Close()
		s := core.NewStack(k, prof)
		res := kvwal.Bench(k, s, kvwal.DefaultBenchConfig(clients), dur)
		out.Rows[i] = KVRow{
			Config: prof.Name, Clients: clients,
			OpsPerS: res.OpsPerS, GroupMean: res.GroupMean,
			P50: res.Latency.Median, P99: res.Latency.P99, P999: res.Latency.P999,
		}
	})
	// Crash sweep: at each crash point the model checker audits every
	// admissible crash state, capped per point. Sweep fans its points out
	// itself, so the profile loop stays serial.
	n := scale.n(4, 10)
	var times []sim.Time
	for i := 1; i <= n; i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*600*sim.Microsecond))
	}
	cfg := crashmc.Config{MaxStates: 512, Samples: 32, Log: func(string, ...any) {}}
	kv := func(prof core.Profile, c crashmc.Config) crashmc.Result { return crashmc.KVScenario(prof, 4, c) }
	for _, mk := range profiles {
		prof := mk(device.NVMeSSD())
		row := KVCrashRow{Config: prof.Name, Trials: len(times)}
		for _, res := range crashmc.Sweep(prof, times, cfg, kv) {
			if !res.Ok() {
				row.Violations++
			}
			if res.Capped {
				row.Capped++
			}
		}
		out.Crash = append(out.Crash, row)
	}
	return out
}

func (r KVResult) String() string {
	t := newTable("KV: WAL group commit, barrier vs transfer-and-flush (NVMe-SSD)")
	t.row("%-8s %8s %10s %8s %9s %9s %9s", "config", "clients", "ops/s", "grp", "p50(ms)", "p99(ms)", "p99.9(ms)")
	for _, row := range r.Rows {
		t.row("%-8s %8d %10.0f %8.1f %9.3f %9.3f %9.3f",
			row.Config, row.Clients, row.OpsPerS, row.GroupMean, row.P50, row.P99, row.P999)
	}
	t.row("-- crash sweep: acknowledged-durable keys must survive every crash point --")
	for _, c := range r.Crash {
		verdict := "OK"
		if c.Violations > 0 {
			verdict = fmt.Sprintf("FAIL (%d violated)", c.Violations)
		}
		if c.Capped > 0 {
			verdict += fmt.Sprintf(" (%d capped)", c.Capped)
		}
		t.row("%-8s %d crash points  %s", c.Config, c.Trials, verdict)
	}
	return t.String()
}
