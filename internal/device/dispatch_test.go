package device

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// bruteEligible decides SCSI eligibility of queued command c from scratch,
// against every incomplete command (queued or in flight) of its stream,
// without the per-stream ordering index or the empty-pick memo.
func bruteEligible(d *Device, c *Command) bool {
	if c.Prio == PrioHeadOfQueue {
		return true
	}
	for _, set := range [][]*Command{d.queued, d.inflight} {
		for _, o := range set {
			if o == c || o.Stream != c.Stream || o.seq > c.seq {
				continue
			}
			if c.Prio == PrioOrdered || o.Prio != PrioSimple {
				return false
			}
		}
	}
	return true
}

func bruteEligibleN(d *Device) int {
	n := 0
	for _, c := range d.queued {
		if bruteEligible(d, c) {
			n++
		}
	}
	return n
}

// TestPickMemoMatchesBruteForce drives random mixes of simple, ordered and
// head-of-queue commands over three streams, with random picks and
// completions, and checks after every submission and completion that the
// memoised pick and eligibleN agree with a brute-force scan of the queue.
func TestPickMemoMatchesBruteForce(t *testing.T) {
	prios := []Priority{PrioSimple, PrioSimple, PrioSimple, PrioOrdered, PrioHeadOfQueue}
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		k := sim.NewKernel()
		cfg := tinyConfig()
		cfg.QueueDepth = 12
		cfg.Seed = trial
		// No service processes: the test itself picks and completes.
		d := newDevice(k, cfg, nand.New(k, cfg.Geometry, cfg.Timing))
		checks := 0
		// check returns a description of the first disagreement, or "".
		check := func() string {
			checks++
			want := bruteEligibleN(d)
			if got := d.eligibleN(); got != want {
				return fmt.Sprintf("eligibleN = %d, brute force %d", got, want)
			}
			// Ask twice: the second call is answered from the memo when
			// the first found nothing.
			if got := d.eligibleN(); got != want {
				return fmt.Sprintf("repeated eligibleN = %d, brute force %d", got, want)
			}
			c := d.pick()
			switch {
			case want == 0 && c != nil:
				return fmt.Sprintf("pick returned seq %d with nothing eligible", c.seq)
			case want > 0 && c == nil:
				return fmt.Sprintf("pick returned nil with %d eligible", want)
			case c != nil:
				d.queued = append(d.queued, c) // bruteEligible skips c itself
				ok := bruteEligible(d, c)
				d.queued = d.queued[:len(d.queued)-1]
				if !ok {
					return fmt.Sprintf("pick returned ineligible seq %d", c.seq)
				}
			}
			return ""
		}
		var failure string
		k.Spawn("host", func(p *sim.Proc) {
			for op := 0; op < 300 && failure == ""; op++ {
				if rng.Intn(2) == 0 || len(d.inflight) == 0 {
					c := &Command{Kind: CmdWrite, Stream: uint64(rng.Intn(3)),
						Prio: prios[rng.Intn(len(prios))]}
					if d.Submit(c) {
						if msg := check(); msg != "" {
							failure = "after submit: " + msg
						}
					}
					continue
				}
				d.complete(p, d.inflight[rng.Intn(len(d.inflight))])
				if msg := check(); msg != "" {
					failure = "after completion: " + msg
				}
			}
			d.Crash()
			if n := d.eligibleN(); failure == "" && (n != 0 || d.pick() != nil) {
				failure = fmt.Sprintf("after crash: eligibleN = %d or pick found a command", n)
			}
		})
		k.Run()
		k.Close()
		if failure != "" {
			t.Fatalf("trial %d, check %d: %s", trial, checks, failure)
		}
		if checks < 150 {
			t.Fatalf("trial %d: only %d checks ran", trial, checks)
		}
	}
}
