// Crash-safety example: sweeps power failures across a barrier-ordered
// write stream on four stacks and reports which preserve the storage
// order. At every crash point the crash-state model checker audits every
// disk image the device contract admits, not just the one the simulated
// power failure leaves. The legacy stack (nobarrier mount on a non-barrier
// device) is the cautionary tale that motivates the whole paper.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/sim"
)

func main() {
	var times []sim.Time
	for i := 1; i <= 12; i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*700*sim.Microsecond))
	}
	// Each point explores at most 512 crash states exhaustively, then
	// probes 32 seeded samples beyond the cap.
	cfg := crashmc.Config{MaxStates: 512, Samples: 32, Log: func(string, ...any) {}}
	cases := []struct {
		label string
		prof  core.Profile
	}{
		{"BFS-OD on barrier UFS (fdatabarrier)", core.BFSOD(device.UFS())},
		{"BFS-OD on barrier plain-SSD", core.BFSOD(device.PlainSSD())},
		{"EXT4-DR transfer-and-flush (safe, slow)", core.EXT4DR(device.PlainSSD())},
		{"EXT4-OD on legacy device (UNSAFE)", core.EXT4OD(device.LegacySSD())},
	}
	for _, c := range cases {
		violated, capped := 0, 0
		for _, res := range crashmc.Sweep(c.prof, times, cfg, crashmc.OrderingScenario) {
			if res.Ordering > 0 {
				violated++
			}
			if res.Capped {
				capped++
			}
		}
		verdict := "order preserved in every checked crash state"
		if violated > 0 {
			verdict = fmt.Sprintf("ORDER VIOLATED at %d/%d crash points", violated, len(times))
		}
		fmt.Printf("%-42s %s (%d/%d points capped)\n", c.label, verdict, capped, len(times))
	}
}
