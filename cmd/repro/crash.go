package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// crashReport runs the filesystem-level crash-consistency sweep through
// the crash-state model checker: durability audits on the -DR stacks,
// ordering audits on the -OD stacks, and the legacy-device control that is
// expected to violate ordering. A point counts as violated when any
// admissible crash state there breaks an invariant; each point's state
// space is capped, and capped points are reported.
func crashReport(scale experiments.Scale) (string, []map[string]any) {
	n := 6
	if scale == experiments.Full {
		n = 20
	}
	var times []sim.Time
	for i := 1; i <= n; i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*500*sim.Microsecond))
	}
	cfg := crashmc.Config{MaxStates: 512, Samples: 32, Log: func(string, ...any) {}}
	out := "== Crash consistency sweep ==\n"
	var rows []map[string]any
	for _, c := range []struct {
		label    string
		prof     core.Profile
		kind     string
		scenario func(core.Profile, crashmc.Config) crashmc.Result
	}{
		{"BFS-DR durability (plain-SSD)", core.BFSDR(device.PlainSSD()), "durability", crashmc.DurabilityScenario},
		{"BFS-OD ordering (plain-SSD)", core.BFSOD(device.PlainSSD()), "ordering", crashmc.OrderingScenario},
		{"BFS-OD ordering (UFS)", core.BFSOD(device.UFS()), "ordering", crashmc.OrderingScenario},
		{"EXT4-DR durability (plain-SSD)", core.EXT4DR(device.PlainSSD()), "durability", crashmc.DurabilityScenario},
		{"EXT4-OD ordering (legacy dev; EXPECTED to violate)", core.EXT4OD(device.LegacySSD()), "ordering", crashmc.OrderingScenario},
	} {
		fails, capped := 0, 0
		for _, res := range crashmc.Sweep(c.prof, times, cfg, c.scenario) {
			if !res.Ok() {
				fails++
			}
			if res.Capped {
				capped++
			}
		}
		out += fmt.Sprintf("%-52s %d/%d crash points violated", c.label, fails, len(times))
		if capped > 0 {
			out += fmt.Sprintf(" (%d capped at %d states)", capped, cfg.MaxStates)
		}
		out += "\n"
		rows = append(rows, map[string]any{
			"case": c.label, "kind": c.kind, "trials": len(times), "violations": fails, "capped": capped,
		})
	}
	return out, rows
}
