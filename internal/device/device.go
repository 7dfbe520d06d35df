package device

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// Stats are cumulative device statistics.
type Stats struct {
	Writes       int64
	Reads        int64
	Flushes      int64
	Barriers     int64 // writes carrying the barrier flag
	FUAWrites    int64
	BusyRejects  int64 // submissions rejected with a full queue
	CacheHits    int64
	EpochCrosses int64 // writeback order checks (barrier devices)
	ReadErrors   int64 // reads completed with an uncorrectable media error
}

// cacheEntry is one page in the writeback cache. Entries live from DMA
// completion until their NAND program completes (or forever, under power
// failure, if the device has PLP).
type cacheEntry struct {
	seq     uint64 // cache arrival order == transfer order
	lpa     uint64
	data    any
	stream  uint64
	epoch   uint64 // write epoch within the stream
	urgent  bool   // FUA: write back immediately
	started bool   // handed to the FTL appender
	idx     uint64 // FTL append index once the append returns; MaxUint64 while it is pending
	durable bool
}

// Device is the simulated storage device.
type Device struct {
	k   *sim.Kernel
	cfg Config
	arr *nand.Array
	f   *ftl.FTL
	rng *rand.Rand
	inj *fault.Injector // nil unless cfg.Fault is set

	// Command queue.
	queued   []*Command
	inflight []*Command
	cmdSeq   uint64
	order    map[uint64]*streamOrder // per-stream incomplete-command index
	order0   *streamOrder            // order[0]: the single-queue fast path

	// Writeback cache.
	entries  []*cacheEntry // not-yet-durable pages in transfer order
	entrySeq uint64
	dirtyN   int // entries not yet handed to the FTL appender
	urgentN  int // dirty entries with FUA urgency
	readMap  map[uint64]any
	epochs   map[uint64]uint64 // per-stream write epoch (barrier count)

	dmaBus *sim.Semaphore

	pickCond  *sim.Cond // workers: a command may have become eligible
	spaceCond *sim.Cond // host: a queue slot may have freed
	wbCond    *sim.Cond // writeback daemon kick
	reapCond  *sim.Cond // durability reaper kick
	doneCond  *sim.Cond // cache entries became durable (flush/FUA waits)

	flushing    bool
	wantDrain   bool // writeback daemon should drain everything
	barrierOn   bool // a barrier write has been seen; penalty active
	dead        bool
	plpSnapshot []*cacheEntry

	// Handler-mode state machines (see handler.go).
	wb   wbSM
	reap reapSM

	eligScratch []int // pick()'s eligible-index scratch, reused across calls
	// noPick memoises an empty pick. What pick can choose depends only on
	// queued and the ordering index, which change only in Submit, retire
	// and Crash; each clears the flag. A scan that finds nothing eligible
	// sets it, so every pick before the next change returns nil in O(1)
	// instead of rescanning the queue.
	noPick bool

	qdSeries *metrics.Series
	stats    Stats
	obs      devObs
}

// devObs holds the device's registry instruments. With no registry every
// field is nil and the nil-safe instrument methods reduce each update to a
// branch; spans go through the kernel and are likewise nil-checked there.
type devObs struct {
	writes, reads, flushes *metrics.Counter
	barriers, fua          *metrics.Counter
	readErrs               *metrics.Counter
	qdepth, cache          *metrics.Gauge
	epochMax, epochStreams *metrics.Gauge
	maxEpoch               uint64 // deepest per-stream epoch seen
}

// cmdSpanName labels a command's trace span; begin and end must agree for
// Chrome's async pairing, so it depends only on immutable command fields.
func cmdSpanName(c *Command) string {
	switch c.Kind {
	case CmdFlush:
		return "flush"
	case CmdBarrier:
		return "barrier"
	case CmdRead:
		return "read"
	default:
		if c.Barrier {
			return "write+barrier"
		}
		return "write"
	}
}

// New builds a device with a freshly formatted FTL and starts its service
// processes.
func New(k *sim.Kernel, cfg Config) *Device {
	cfg = defaults(cfg)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	arr := nand.New(k, cfg.Geometry, cfg.Timing)
	d := newDevice(k, cfg, arr)
	d.f = ftl.New(k, arr, cfg.FTL)
	d.start()
	return d
}

func newDevice(k *sim.Kernel, cfg Config, arr *nand.Array) *Device {
	d := &Device{
		k: k, cfg: cfg, arr: arr,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		order:     make(map[uint64]*streamOrder),
		order0:    &streamOrder{},
		readMap:   make(map[uint64]any),
		epochs:    make(map[uint64]uint64),
		dmaBus:    sim.NewSemaphore(k, 1),
		pickCond:  sim.NewCond(k),
		spaceCond: sim.NewCond(k),
		wbCond:    sim.NewCond(k),
		reapCond:  sim.NewCond(k),
		doneCond:  sim.NewCond(k),
		qdSeries:  metrics.NewSeries(cfg.Name + "/qd"),
	}
	d.inj = fault.New(cfg.Fault)
	arr.SetFault(d.inj)
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		d.obs = devObs{
			writes:       reg.Counter("device/writes"),
			reads:        reg.Counter("device/reads"),
			flushes:      reg.Counter("device/flushes"),
			barriers:     reg.Counter("device/barriers"),
			fua:          reg.Counter("device/fua"),
			readErrs:     reg.Counter("device/read.errors"),
			qdepth:       reg.Gauge("device/queue.depth"),
			cache:        reg.Gauge("device/cache.pages"),
			epochMax:     reg.Gauge("device/epoch.max"),
			epochStreams: reg.Gauge("device/epoch.streams"),
		}
	}
	return d
}

// start spawns the device's service processes in the kernel's process
// model: run-to-completion handlers on callback kernels, the blocking
// goroutine loops (the trace oracle) on the reference kernel.
func (d *Device) start() {
	prefix := d.cfg.Name + "/worker"
	if d.k.CallbackMode() {
		for i := 0; i < d.cfg.QueueDepth; i++ {
			w := &workerSM{}
			d.k.SpawnHandlerIdx(prefix, i, func(h *sim.Proc) { d.workerStep(h, w) })
		}
		d.k.SpawnHandler(d.cfg.Name+"/writeback", d.writebackStep)
		d.k.SpawnHandler(d.cfg.Name+"/reaper", d.reaperStep)
		return
	}
	for i := 0; i < d.cfg.QueueDepth; i++ {
		d.k.SpawnIdx(prefix, i, d.worker)
	}
	d.k.Spawn(d.cfg.Name+"/writeback", d.writebackLoop)
	d.k.Spawn(d.cfg.Name+"/reaper", d.reaperLoop)
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Array exposes the NAND array (verification hooks).
func (d *Device) Array() *nand.Array { return d.arr }

// FTL exposes the translation layer (verification hooks).
func (d *Device) FTL() *ftl.FTL { return d.f }

// FaultInjector exposes the device's fault injector (nil when the config
// has no fault plan), for fault-delivery counters in tests and experiments.
func (d *Device) FaultInjector() *fault.Injector { return d.inj }

// Stats returns cumulative statistics.
func (d *Device) Stats() Stats { return d.stats }

// QDSeries returns the queue-depth trace (Figs. 10, 12).
func (d *Device) QDSeries() *metrics.Series { return d.qdSeries }

// Occupancy returns the number of commands in the device (queued + in
// service).
func (d *Device) Occupancy() int { return len(d.queued) + len(d.inflight) }

// CurEpoch returns the write epoch of stream 0 (the only stream a
// single-queue host uses), i.e. the device-global barrier count.
func (d *Device) CurEpoch() uint64 { return d.epochs[0] }

// StreamEpoch returns the current write epoch of one stream.
func (d *Device) StreamEpoch(stream uint64) uint64 { return d.epochs[stream] }

// Dead reports whether the device has crashed.
func (d *Device) Dead() bool { return d.dead }

// Submit offers a command to the device. It returns false when the command
// queue is full or the device is dead; the host must retry (the block
// layer's dispatch module handles that, §3.4 Fig. 6b).
func (d *Device) Submit(c *Command) bool {
	if d.dead {
		return false
	}
	if d.Occupancy() >= d.cfg.QueueDepth {
		d.stats.BusyRejects++
		return false
	}
	d.cmdSeq++
	c.seq = d.cmdSeq
	c.arrived = d.k.Now()
	c.complete = false // commands are pooled; reset per admission
	c.Err = nil
	so := d.streamOrderFor(c.Stream)
	so.all = append(so.all, c.seq) // cmdSeq is increasing: append keeps order
	if c.Prio != PrioSimple {
		so.ord = append(so.ord, c.seq)
	}
	d.queued = append(d.queued, c)
	d.noPick = false
	d.qdSeries.Record(d.k.Now(), float64(d.Occupancy()))
	if d.obs.qdepth != nil {
		d.obs.qdepth.Set(int64(d.Occupancy()))
	}
	if d.k.Spans() != nil {
		d.k.SpanBegin("device", cmdSpanName(c), c.seq)
	}
	// Only as many workers as there are eligible commands can pick one;
	// waking the rest of the idle pool would be a futile dispatch each.
	d.pickCond.SignalN(d.eligibleN())
	return true
}

// WaitSpace blocks until the queue has a free slot (or the device dies).
func (d *Device) WaitSpace(p *sim.Proc) {
	for !d.dead && d.Occupancy() >= d.cfg.QueueDepth {
		d.spaceCond.Wait(p)
	}
}

// --- command servicing ---

// streamOrder tracks one stream's incomplete commands (queued and in
// flight) as ascending seq lists. The seed's eligibility check re-scanned
// the whole queue per candidate — O(n²) per pick, the simulator's hottest
// path under deep queues; the index answers the same questions from the
// list heads in O(1).
type streamOrder struct {
	all []uint64 // seqs of every incomplete command
	ord []uint64 // seqs of incomplete ordered/head-of-queue commands
}

func (d *Device) streamOrderFor(stream uint64) *streamOrder {
	if stream == 0 {
		return d.order0
	}
	so := d.order[stream]
	if so == nil {
		so = &streamOrder{}
		d.order[stream] = so
	}
	return so
}

// seqRemove deletes seq from an ascending list.
func seqRemove(a []uint64, seq uint64) []uint64 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == seq {
		a = append(a[:lo], a[lo+1:]...)
	}
	return a
}

// retire drops a completed command from the ordering index.
func (d *Device) retire(c *Command) {
	so := d.streamOrderFor(c.Stream)
	so.all = seqRemove(so.all, c.seq)
	if c.Prio != PrioSimple {
		so.ord = seqRemove(so.ord, c.seq)
	}
	d.noPick = false
}

// eligible reports whether queued command c may begin service under SCSI
// ordering rules, given every incomplete command of the same stream with a
// smaller sequence number. Ordering is scoped per stream: commands of other
// streams never constrain c, which is what lets independent streams proceed
// through their own barriers concurrently.
func (d *Device) eligible(c *Command) bool {
	switch c.Prio {
	case PrioHeadOfQueue:
		return true
	case PrioOrdered:
		// Only after everything received before it (c is in all, so the
		// head is c itself iff nothing older is incomplete).
		return d.streamOrderFor(c.Stream).all[0] == c.seq
	default: // simple: must not pass an earlier ordered/head-of-queue command
		ord := d.streamOrderFor(c.Stream).ord
		return len(ord) == 0 || ord[0] > c.seq
	}
}

// pick removes one eligible command from the queue, emulating the
// controller's freedom to choose among simple commands.
func (d *Device) pick() *Command {
	if d.noPick {
		return nil
	}
	elig := d.eligScratch[:0]
	for i, c := range d.queued {
		if d.eligible(c) {
			if c.Prio == PrioHeadOfQueue {
				elig = append(elig[:0], i)
				break
			}
			elig = append(elig, i)
		}
	}
	d.eligScratch = elig // keep the grown backing array for the next pick
	if len(elig) == 0 {
		d.noPick = true
		return nil
	}
	i := elig[d.rng.Intn(len(elig))]
	c := d.queued[i]
	d.queued = append(d.queued[:i], d.queued[i+1:]...)
	d.inflight = append(d.inflight, c)
	return c
}

// eligibleN counts the queued commands a worker could pick now: how many
// workers are worth waking. It shares pick's empty memo.
func (d *Device) eligibleN() int {
	if d.noPick {
		return 0
	}
	n := 0
	for _, c := range d.queued {
		if d.eligible(c) {
			n++
		}
	}
	d.noPick = n == 0
	return n
}

func (d *Device) worker(p *sim.Proc) {
	for {
		var c *Command
		for {
			if !d.dead {
				if c = d.pick(); c != nil {
					break
				}
			}
			d.pickCond.Wait(p)
		}
		d.service(p, c)
	}
}

// barrierAdvance is the epoch-advance bookkeeping a barrier performs,
// shared statement-for-statement by the blocking and handler service paths
// (standalone barrier command and barrier-flagged write alike).
func (d *Device) barrierAdvance(stream uint64) {
	d.stats.Barriers++
	d.epochs[stream]++
	if d.obs.barriers != nil {
		d.obs.barriers.Inc()
		d.obs.epochStreams.Set(int64(len(d.epochs)))
		if e := d.epochs[stream]; e > d.obs.maxEpoch {
			d.obs.maxEpoch = e
			d.obs.epochMax.Set(int64(e))
		}
	}
	if d.cfg.BarrierPenalty > 0 && !d.barrierOn {
		d.barrierOn = true
		d.arr.ProgramScale = 1 + d.cfg.BarrierPenalty
	}
}

func (d *Device) service(p *sim.Proc, c *Command) {
	p.Advance(d.cfg.CmdOverhead)
	if d.dead {
		return
	}
	c.Trace.StampChain(reqtrace.StageDevStart, p.Now())
	switch c.Kind {
	case CmdFlush:
		d.stats.Flushes++
		d.doFlush(p)
	case CmdBarrier:
		d.barrierAdvance(c.Stream)
	case CmdWrite:
		if c.PreFlush {
			d.stats.Flushes++
			d.doFlush(p)
			if d.dead {
				return
			}
		}
		d.doWrite(p, c)
	case CmdRead:
		d.doRead(p, c)
	}
	if d.dead {
		return
	}
	d.complete(p, c)
}

func (d *Device) doWrite(p *sim.Proc, c *Command) {
	// Cache admission: wait for a free page slot.
	for !d.dead && len(d.entries) >= d.cfg.CachePages {
		d.wantDrain = true
		d.wbCond.Broadcast()
		d.doneCond.Wait(p)
	}
	if d.dead {
		return
	}
	if c.Barrier && d.cfg.BarrierCmdCost > 0 {
		p.Advance(d.cfg.BarrierCmdCost)
	}
	// DMA the page from host memory into the cache.
	d.dmaBus.Acquire(p, 1)
	p.Advance(d.cfg.DMAPerPage)
	d.dmaBus.Release(1)
	if d.dead {
		return
	}
	d.entrySeq++
	e := &cacheEntry{seq: d.entrySeq, lpa: c.LPA, data: c.Data,
		stream: c.Stream, epoch: d.epochs[c.Stream], urgent: c.FUA}
	d.entries = append(d.entries, e)
	d.dirtyN++
	if e.urgent {
		d.urgentN++
	}
	d.readMap[c.LPA] = c.Data
	d.stats.Writes++
	d.obs.cache.Set(int64(len(d.entries)))
	if c.Barrier {
		d.barrierAdvance(c.Stream)
	}
	if d.cfg.EagerWriteback || d.dirtyCount() >= d.highWater() || e.urgent {
		d.wbCond.Broadcast()
	}
	if c.FUA {
		d.stats.FUAWrites++
		if d.cfg.PLP {
			// The powerfail-protected cache is as durable as the medium:
			// FUA is satisfied at transfer.
			return
		}
		for !d.dead && !e.durable {
			d.doneCond.Wait(p)
		}
	}
}

// cacheLive reports whether lpa still has a not-yet-durable entry in the
// writeback cache. Only those reads are legitimately served from device
// DRAM; once the page is programmed and retired, a read touches the medium.
// The distinction is moot without fault injection (readMap doubles as the
// flash content shadow), so only the fault-armed read path consults it.
func (d *Device) cacheLive(lpa uint64) bool {
	for _, e := range d.entries {
		if e.lpa == lpa && !e.durable {
			return true
		}
	}
	return false
}

func (d *Device) doRead(p *sim.Proc, c *Command) {
	data, hit := d.readMap[c.LPA]
	if hit && d.cfg.Fault != nil && !d.cacheLive(c.LPA) {
		// Fault campaign: the page left the cache, so the read must face
		// the medium (and its injected errors), not the DRAM shadow.
		hit = false
	}
	if hit {
		d.stats.CacheHits++
	} else {
		var err error
		data, _, err = d.f.ReadE(p, c.LPA)
		if d.dead {
			return
		}
		if err != nil {
			// Uncorrectable media error: the command completes with the
			// error and transfers nothing. The host may retry — a later
			// attempt re-enters the device's read-retry ladder.
			c.Err = err
			d.stats.Reads++
			d.stats.ReadErrors++
			d.obs.readErrs.Inc()
			return
		}
	}
	d.dmaBus.Acquire(p, 1)
	p.Advance(d.cfg.DMAPerPage)
	d.dmaBus.Release(1)
	c.Data = data
	d.stats.Reads++
}

// doFlush persists every page currently in the cache. With PLP the cache is
// already durable, so only the command round trip is charged (the paper's
// tε).
func (d *Device) doFlush(p *sim.Proc) {
	if d.cfg.PLP {
		p.Advance(d.cfg.PLPFlushLatency)
		return
	}
	target := d.entrySeq
	d.wantDrain = true
	d.wbCond.Broadcast()
	for !d.dead && d.oldestPending() <= target {
		d.doneCond.Wait(p)
	}
}

// oldestPending returns the seq of the oldest non-durable cache entry, or
// MaxUint64 when the cache is clean.
func (d *Device) oldestPending() uint64 {
	for _, e := range d.entries {
		if !e.durable {
			return e.seq
		}
	}
	return ^uint64(0)
}

func (d *Device) complete(p *sim.Proc, c *Command) {
	for i, o := range d.inflight {
		if o == c {
			d.inflight = append(d.inflight[:i], d.inflight[i+1:]...)
			break
		}
	}
	c.complete = true
	d.retire(c)
	d.qdSeries.Record(p.Now(), float64(d.Occupancy()))
	if d.obs.writes != nil {
		d.obs.qdepth.Set(int64(d.Occupancy()))
		switch c.Kind {
		case CmdFlush:
			d.obs.flushes.Inc()
		case CmdWrite:
			d.obs.writes.Inc()
			if c.PreFlush {
				d.obs.flushes.Inc()
			}
			if c.FUA {
				d.obs.fua.Inc()
			}
		case CmdRead:
			d.obs.reads.Inc()
		}
	}
	if d.k.Spans() != nil {
		d.k.SpanEnd("device", cmdSpanName(c), c.seq)
	}
	c.Trace.StampChain(reqtrace.StageDevDone, p.Now())
	d.spaceCond.Broadcast()
	d.pickCond.SignalN(d.eligibleN())
	if c.Done != nil {
		c.Done(p.Now(), c)
	}
}

// --- writeback path ---

func (d *Device) dirtyCount() int { return d.dirtyN }

func (d *Device) highWater() int {
	return int(float64(d.cfg.CachePages) * d.cfg.WritebackHighWater)
}

func (d *Device) lowWater() int {
	return int(float64(d.cfg.CachePages) * d.cfg.WritebackLowWater)
}

// nextWriteback chooses the next cache entry to append to the FTL. Barrier
// devices preserve transfer order (the paper's UFS FTL appends blocks in
// transfer order, which together with in-order recovery yields the epoch
// guarantee). Legacy devices scramble within a window, modelling an
// arbitrary cache-eviction policy — exactly why they need transfer-and-flush.
func (d *Device) nextWriteback() *cacheEntry {
	var window []*cacheEntry
	for _, e := range d.entries {
		if e.started {
			continue
		}
		if d.cfg.BarrierSupport {
			// Order preserved: always drain in transfer order (an urgent
			// entry pulls everything in front of it along).
			return e
		}
		if e.urgent {
			return e
		}
		window = append(window, e)
		if len(window) == 16 {
			break
		}
	}
	if len(window) == 0 {
		return nil
	}
	return window[d.rng.Intn(len(window))]
}

func (d *Device) shouldWriteback() bool {
	if d.dirtyN == 0 {
		return false
	}
	if d.cfg.EagerWriteback {
		return true
	}
	return d.wantDrain || d.urgentN > 0 || d.dirtyN >= d.lowWater()
}

func (d *Device) writebackLoop(p *sim.Proc) {
	for {
		for d.dead || !d.shouldWriteback() {
			if !d.dead && d.dirtyCount() == 0 {
				d.wantDrain = false
			}
			d.wbCond.Wait(p)
		}
		e := d.nextWriteback()
		if e == nil {
			d.wantDrain = false
			continue
		}
		e.started = true
		e.idx = ^uint64(0) // unknown until Append returns; the reaper skips it
		d.dirtyN--
		if e.urgent {
			d.urgentN--
		}
		e.idx = d.f.Append(p, e.lpa, e.data) // may block on FTL space
		if d.dead {
			return
		}
		d.reapCond.Broadcast()
	}
}

// reaperLoop retires cache entries as their NAND programs complete, freeing
// cache slots and waking FUA/flush waiters.
func (d *Device) reaperLoop(p *sim.Proc) {
	for {
		// Find the smallest outstanding append index.
		min := ^uint64(0)
		for _, e := range d.entries {
			if e.started && !e.durable && e.idx < min {
				min = e.idx
			}
		}
		if min == ^uint64(0) {
			d.reapCond.Wait(p)
			continue
		}
		d.f.WaitDurable(p, min+1)
		if d.dead {
			return
		}
		durableTo := d.f.DurableIdx()
		kept := d.entries[:0]
		retired := false
		for _, e := range d.entries {
			if e.started && !e.durable && e.idx < durableTo {
				e.durable = true
				retired = true
				continue // drop from cache
			}
			kept = append(kept, e)
		}
		d.entries = kept
		d.obs.cache.Set(int64(len(d.entries)))
		if retired {
			d.doneCond.Broadcast()
			d.pickCond.SignalN(len(d.queued))
		}
	}
}

// --- crash & recovery ---

// Crash simulates power failure: in-flight commands vanish, the NAND array
// drops in-flight programs, and — unless the device has PLP — the writeback
// cache is lost. The device object is dead afterwards; use Recover to bring
// the storage back as a new Device.
func (d *Device) Crash() {
	if d.dead {
		return
	}
	d.dead = true
	if d.cfg.PLP {
		// The supercap drains the cache to flash; equivalently, the cache
		// image survives and is replayed at next power-on.
		for _, e := range d.entries {
			if !e.durable {
				d.plpSnapshot = append(d.plpSnapshot, e)
			}
		}
		if d.inj.PLPFailure() {
			// PLP-failure model: the supercap dies mid-drain, persisting
			// only a seeded prefix of the pending entries in transfer
			// order. Everything beyond the prefix is lost exactly as on an
			// unprotected device.
			d.plpSnapshot = d.plpSnapshot[:d.inj.PLPDrain(len(d.plpSnapshot))]
		}
	}
	d.queued = nil
	d.inflight = nil
	d.order = make(map[uint64]*streamOrder)
	d.order0 = &streamOrder{}
	d.noPick = false
	d.arr.Fail()
	// Wake every parked process so it can observe death and stand down.
	d.pickCond.Broadcast()
	d.spaceCond.Broadcast()
	d.wbCond.Broadcast()
	d.reapCond.Broadcast()
	d.doneCond.Broadcast()
}

// Recover powers the storage back on: it remounts the FTL from the NAND
// array (running the in-order recovery scan) and replays a PLP cache
// snapshot if one exists. It returns a fresh Device over the same array.
func Recover(p *sim.Proc, crashed *Device) *Device {
	if !crashed.dead {
		panic("device: Recover on a live device")
	}
	k := p.Kernel()
	crashed.arr.Restore()
	crashed.arr.ProgramScale = 1
	d := newDevice(k, crashed.cfg, crashed.arr)
	d.f = ftl.Mount(p, crashed.arr, crashed.cfg.FTL)
	for _, e := range crashed.plpSnapshot {
		idx := d.f.Append(p, e.lpa, e.data)
		d.f.WaitDurable(p, idx+1)
	}
	crashed.plpSnapshot = nil
	d.start()
	return d
}

// DurableData returns the post-crash durable contents of a logical page
// (verification hook; use after Recover).
func (d *Device) DurableData(lpa uint64) (any, bool) { return d.f.DurableData(lpa) }
