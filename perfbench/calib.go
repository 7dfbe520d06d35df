package main

import (
	"fmt"
	"time"
)

// Machine-speed calibration.
//
// The benchmark runs on small shared machines whose speed swings by a third
// or more for seconds to minutes at a time, with the load on the rest of
// the host; a median over reps moves with the share of a run spent in slow
// phases. Pure arithmetic barely slows in those phases, while the
// simulator's kind of work (branchy dispatch through function values, map
// lookups, goroutine hand-offs) slows the most. So the benchmark runs a
// fixed piece of that kind of work, a calibration slice, between pieces of
// the timed phase, about every calEvery of timed work, and scales the rep's
// timed phase by how much slower than calSliceRef its median slice ran.
// The slices are the benchmark's own code, allocate nothing, and are never
// timed as part of the program, so a change to the program moves host_s
// and leaves the scale alone: each slice first touches its own data, so
// what the program left in the caches does not change its time, and the
// median ignores the slices that a garbage collection cycle of the
// program's heap happened to slow.

// calEvery is the timed work between calibration slices.
const calEvery = 20 * time.Millisecond

// calSliceRef is the time of one calibration slice on the machine the
// benchmark was tuned on (Intel Xeon, 2 vCPU, Go 1.24) in a quiet phase.
// host_s reads as host seconds at that speed.
const calSliceRef = 900 * time.Microsecond

const (
	calEvents  = 3000 // events dispatched per slice
	calPending = 32   // events in the queue at once
	calKeys    = 4096
	calHandoff = 600 // goroutine round trips per slice
)

type calEvent struct {
	at   uint64
	kind uint8
}

// calibrator holds the slice's state; it is reused so slices allocate
// nothing.
type calibrator struct {
	q      []calEvent
	keys   []string
	counts map[string]int
	x      uint64
	kinds  [4]func(c *calibrator, at uint64)
	ping   chan int
	pong   chan int

	since  time.Duration   // timed work since the last slice
	slices []time.Duration // this rep's slice times
}

func newCalibrator() *calibrator {
	c := &calibrator{
		q:      make([]calEvent, 0, calPending+1),
		keys:   make([]string, calKeys),
		counts: make(map[string]int, calKeys),
		x:      1,
		slices: make([]time.Duration, 0, 1024),
		ping:   make(chan int),
		pong:   make(chan int),
	}
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("k%05d", i*7919%100000)
		c.counts[c.keys[i]] = 0
	}
	c.kinds = [4]func(c *calibrator, at uint64){
		func(c *calibrator, at uint64) { c.counts[c.keys[c.rand()%calKeys]]++; c.push(at+c.rand()%97, 1) },
		func(c *calibrator, at uint64) { c.counts[c.keys[c.rand()%calKeys]] += 2; c.push(at+c.rand()%89, 2) },
		func(c *calibrator, at uint64) {
			if c.counts[c.keys[c.rand()%calKeys]]%2 == 0 {
				c.push(at+c.rand()%83, 3)
			} else {
				c.push(at+c.rand()%79, 0)
			}
		},
		func(c *calibrator, at uint64) { c.push(at+1+c.rand()%101, uint8(c.rand()%4)) },
	}
	go func() {
		for v := range c.ping {
			c.pong <- v + 1
		}
	}()
	return c
}

func (c *calibrator) rand() uint64 {
	c.x = c.x*6364136223846793005 + 1442695040888963407
	return c.x >> 33
}

// push and pop keep q a binary min-heap on at.
func (c *calibrator) push(at uint64, kind uint8) {
	c.q = append(c.q, calEvent{at, kind})
	for i := len(c.q) - 1; i > 0; {
		p := (i - 1) / 2
		if c.q[p].at <= c.q[i].at {
			break
		}
		c.q[p], c.q[i] = c.q[i], c.q[p]
		i = p
	}
}

func (c *calibrator) pop() calEvent {
	top := c.q[0]
	last := len(c.q) - 1
	c.q[0] = c.q[last]
	c.q = c.q[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && c.q[l].at < c.q[m].at {
			m = l
		}
		if l+1 < last && c.q[l+1].at < c.q[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		c.q[m], c.q[i] = c.q[i], c.q[m]
		i = m
	}
	return top
}

// slice runs one calibration slice and returns its time.
func (c *calibrator) slice() time.Duration {
	for _, k := range c.keys {
		c.x += uint64(c.counts[k])
	}
	t := time.Now()
	c.q = c.q[:0]
	for i := 0; i < calPending; i++ {
		c.push(uint64(i), uint8(i%4))
	}
	for i := 0; i < calEvents; i++ {
		e := c.pop()
		c.kinds[e.kind](c, e.at)
	}
	s := 0
	for i := 0; i < calHandoff; i++ {
		c.ping <- i
		s += <-c.pong
	}
	c.x += uint64(s)
	return time.Since(t)
}

// after accounts d of timed work and runs a slice when calEvery of it has
// passed since the last one.
func (c *calibrator) after(d time.Duration) {
	c.since += d
	if c.since < calEvery {
		return
	}
	c.since = 0
	if len(c.slices) < cap(c.slices) {
		c.slices = append(c.slices, c.slice())
	}
}

// reset starts a rep: the first slice runs after the rep's first piece.
func (c *calibrator) reset() {
	c.since, c.slices = calEvery, c.slices[:0]
}

// scale is the rep's slowness against the reference: its median slice
// time over calSliceRef (1 when no slice ran).
func (c *calibrator) scale() float64 {
	if len(c.slices) == 0 {
		return 1
	}
	xs := make([]float64, len(c.slices))
	for i, d := range c.slices {
		xs[i] = float64(d)
	}
	return median(xs) / float64(calSliceRef)
}
