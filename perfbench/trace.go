package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Host-time tracing. The benchmark measures the program from outside: it
// wraps each call into a public API in a span, records spans in memory and
// writes them as a Chrome trace when the run ends. A nil *tracer is tracing
// off; every method is then a plain call, so untraced reps pay nothing.

// maxSpans bounds the spans kept for the Chrome trace. Totals stay exact
// past it; only the timeline is truncated (and the drop is counted).
const maxSpans = 50000

type span struct {
	name       string
	tid        int
	start, dur time.Duration
}

// spanTotal is the exact per-name aggregate: a span's self time is its
// duration minus the part of it its child spans cover.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

type tracer struct {
	t0      time.Time
	tid     int // one Chrome thread row per traced rep
	spans   []span
	dropped int
	open    []openSpan
	totals  map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

// span runs fn inside a span called name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(name)
	fn()
	t.end()
}

func (t *tracer) begin(name string) {
	t.open = append(t.open, openSpan{name: name, start: time.Now()})
}

func (t *tracer) end() {
	now := time.Now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now.Sub(o.start)
	if n := len(t.open); n > 0 {
		t.open[n-1].child += dur
	}
	tot := t.totals[o.name]
	if tot == nil {
		tot = &spanTotal{Name: o.name}
		t.totals[o.name] = tot
	}
	tot.Count++
	tot.TotalS += dur.Seconds()
	tot.SelfS += (dur - o.child).Seconds()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: o.name, tid: t.tid, start: o.start.Sub(t.t0), dur: dur})
	} else {
		t.dropped++
	}
}

// total returns the summed duration of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil || t.totals[name] == nil {
		return 0
	}
	return t.totals[name].TotalS
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	})
}

// spanTable returns the per-name totals sorted by name.
func (t *tracer) spanTable() []spanTotal {
	out := make([]spanTotal, 0, len(t.totals))
	for _, tot := range t.totals {
		out = append(out, *tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// goStats reads the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a goStats) add(b goStats) goStats {
	return goStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// heapWatch samples the Go heap (bytes in live and not-yet-swept objects)
// every millisecond on its own goroutine and keeps the peak. stop returns
// once the sampler goroutine has exited.
type heapWatch struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{stopc: make(chan struct{}), peak: heapBytes()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in MiB.
func (h *heapWatch) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return float64(h.peak) / (1 << 20)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal: %v", err))
	}
	return string(b)
}
