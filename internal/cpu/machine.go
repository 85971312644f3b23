// Package cpu is the cycle-level out-of-order processor model standing in
// for the paper's modified Wattch 1.0 simulator (Sec. 3, Table 2): an 8-wide,
// 16-stage superscalar with a 128-entry reorder buffer, 64-entry issue
// queue, 64-entry load/store queue, a combination branch predictor, 8 MSHRs,
// and — central to the paper's Sec. 6.3 analysis — load-hit speculation with
// either Pentium-4-style dependent-only replay or R10000-style squash-all.
//
// The model is trace-driven: it consumes the committed-path micro-op stream
// from internal/workload (or a pre-recorded isa.Recorded trace replayed
// through an isa.Cursor) and models wrong-path work as fetch-redirect
// penalties. Cache behaviour (including precharge-policy stalls and latency)
// comes from internal/cache, whose L1s the machine drives with fetch- and
// execute-stage timestamps.
//
// The cycle loop is engineered to be allocation-free in steady state and a
// Machine is reusable across runs via Reset, so sweep engines keep one
// scratch machine per worker instead of reconstructing ROB, scheduler and
// predictor state once per policy point (see DESIGN.md §11).
package cpu

import (
	"context"
	"fmt"
	"math/bits"

	"nanocache/internal/cache"
	"nanocache/internal/isa"
)

// ReplayMode selects the load-hit misspeculation recovery scheme (Sec. 6.3).
type ReplayMode int

const (
	// DependentOnly squashes and reissues only the instructions dependent
	// on the misspeculated load, as the Pentium 4 does. The paper adopts
	// this mode for its 16-stage pipeline.
	DependentOnly ReplayMode = iota
	// SquashAll squashes every instruction issued after the misspeculated
	// load, as the MIPS R10000 and Alpha 21264 do.
	SquashAll
)

// String names the replay mode.
func (m ReplayMode) String() string {
	switch m {
	case DependentOnly:
		return "dependent-only"
	case SquashAll:
		return "squash-all"
	}
	return fmt.Sprintf("ReplayMode(%d)", int(m))
}

// Config is the machine configuration; DefaultConfig matches Table 2.
type Config struct {
	// Width is the issue/decode/commit width.
	Width int
	// ROBSize is the reorder-buffer capacity.
	ROBSize int
	// IQSize bounds how many unissued entries the scheduler considers.
	IQSize int
	// LSQSize bounds in-flight memory operations.
	LSQSize int
	// MSHRs bounds outstanding L1D misses.
	MSHRs int
	// FrontEndDepth is fetch-to-issueable latency in cycles.
	FrontEndDepth int
	// IssueToExec is the issue-to-execute delay; with the 16-stage pipeline
	// the paper quotes 6 cycles of load-issue-to-resolution.
	IssueToExec int
	// LoadHitSpec enables load-hit speculation.
	LoadHitSpec bool
	// Replay selects the recovery scheme when LoadHitSpec is on.
	Replay ReplayMode
	// Predecode enables the paper's predecoding hints to the data cache
	// (Sec. 6.3): at dispatch, the subarray predicted from a memory op's
	// base register value is precharged ahead of the access.
	Predecode bool
	// ResizeInterval, if nonzero, ends a resizable-cache interval every
	// that many committed instructions.
	ResizeInterval uint64
	// MaxInstructions bounds the run (0 = until the stream ends).
	MaxInstructions uint64
}

// DefaultConfig returns the paper's base system configuration.
func DefaultConfig() Config {
	return Config{
		Width:         8,
		ROBSize:       128,
		IQSize:        64,
		LSQSize:       64,
		MSHRs:         8,
		FrontEndDepth: 8,
		IssueToExec:   6,
		LoadHitSpec:   true,
		Replay:        DependentOnly,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Width > 32:
		return fmt.Errorf("cpu: width %d out of range", c.Width)
	case c.ROBSize < c.Width || c.ROBSize > 1<<16:
		return fmt.Errorf("cpu: ROB size %d out of range", c.ROBSize)
	case c.IQSize < 1 || c.IQSize > c.ROBSize:
		return fmt.Errorf("cpu: IQ size %d out of range", c.IQSize)
	case c.LSQSize < 1:
		return fmt.Errorf("cpu: LSQ size %d out of range", c.LSQSize)
	case c.MSHRs < 1:
		return fmt.Errorf("cpu: MSHRs %d out of range", c.MSHRs)
	case c.FrontEndDepth < 1 || c.IssueToExec < 0:
		return fmt.Errorf("cpu: pipeline depths invalid")
	}
	return nil
}

// Result carries the processor-side counters of one run; cache-side results
// are read from the L1s after Run returns.
type Result struct {
	// Cycles is the total execution time.
	Cycles uint64
	// Committed is the number of committed instructions.
	Committed uint64
	// IPC is Committed/Cycles.
	IPC float64
	// Branches and Mispredicts count conditional-branch outcomes.
	Branches, Mispredicts uint64
	// Replays counts load-hit misspeculation events; ReplayedUops counts
	// the instructions squashed and reissued because of them.
	Replays, ReplayedUops uint64
	// Loads and Stores count committed memory operations (reissues are
	// visible in IssuedUops, not here).
	Loads, Stores uint64
	// IssuedUops counts every issue event including reissues; the excess
	// over Committed is wasted issue bandwidth (and energy).
	IssuedUops uint64
	// PrechargeStallCycles accumulates data-side precharge stalls observed.
	PrechargeStallCycles uint64
}

const invalidSrc = ^uint64(0)

// issuedBit marks an issueQ slot whose entry has issued; the low 63 bits
// then carry the entry's announcedReady so consumer readiness checks read
// one packed word instead of dereferencing the robEntry. It can never
// collide with a readiness bound: bounds are real cycle numbers far below
// 2^63.
const issuedBit = uint64(1) << 63

// wheelBuckets is the scheduler timing wheel's revolution length in cycles.
// It comfortably covers the common issue-bound horizons (front-end depth,
// ALU chains, L1 miss service); longer waits wrap and cost one spare bucket
// visit per revolution. Must be a power of two.
const (
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
)

// completeShift packs an entry's class (7 values, 3 bits) under its
// completion cycle in the completeQ side ring.
const completeShift = 3

// schedEntry is the scheduler's compact per-slot view of an in-flight entry:
// the producer sequence numbers and the port class, i.e. exactly what the
// per-cycle readiness checks and the squash-shadow walk read. Keeping them
// out of robEntry means those walks touch two slots per cache line instead
// of paying a robEntry-sized stride.
type schedEntry struct {
	src   [3]uint64 // producer sequence numbers, densely packed: src[:n]
	n     uint8     // number of live sources
	class isa.Class
}

// robEntry holds only the entry's micro-op and sequence number. All per-entry
// scheduling state lives in packed side rings indexed by the same slot —
// issueQ (issued flag + announced readiness, or the pre-issue bound), sched
// (sources + class), completeQ (completion cycle + class) and issueAtQ — so
// the hot commit and ALU-issue paths never touch this wide struct at all: a
// side-ring word packs eight slots per cache line where robEntry fits barely
// one.
type robEntry struct {
	op  isa.MicroOp
	seq uint64
}

type replayEvent struct {
	seq      uint64 // misspeculated load
	issueAt  uint64 // its issueAt when scheduled (stale-check)
	detectAt uint64
	actual   uint64 // corrected announcedReady
}

type mshrEntry struct {
	line    uint64
	readyAt uint64
}

// Machine wires a configuration, the two L1s and a micro-op stream.
//
// A Machine is reusable: Reset reinitializes it in place for a new run,
// recycling the ROB storage, scheduler scratch buffers and predictor tables,
// so worker pools keep one scratch machine per worker instead of paying
// construction and allocator traffic once per run.
type Machine struct {
	cfg Config
	l1i *cache.L1
	l1d *cache.L1
	bp  *Predictor
	s   isa.Stream
	// cursor is s devirtualized: when the stream is a trace cursor (the
	// sweep engines' replay path), fetch calls it directly so the per-op
	// copy inlines instead of going through the interface.
	cursor *isa.Cursor

	tracer Tracer
	// ctx, when non-nil, is polled periodically by Run so a cancelled or
	// timed-out context aborts a long simulation early (see SetContext).
	ctx context.Context

	// rob is the reorder buffer ring. Its capacity is cfg.ROBSize rounded up
	// to a power of two so the ring index is a mask instead of a 64-bit
	// modulo — the pre-overhaul `seq % len(rob)` division was the single
	// hottest instruction of the whole simulator (36% of run time).
	// Occupancy is still bounded by cfg.ROBSize exactly.
	rob     []robEntry
	robMask uint64
	headSeq uint64 // oldest in-flight sequence
	tailSeq uint64 // next sequence to dispatch
	// issueQ is a ring parallel to rob holding the scheduler's per-slot skip
	// word: issuedBit|announcedReady once the entry has issued, otherwise a
	// lower bound on the earliest cycle it could issue. The bound is always sound: announced
	// readiness only ever moves later (replay corrections and reissues both
	// announce after the original time), and a squash resets the slot to 0,
	// so skipping until the bound never delays a real issue. Packing the
	// words in their own uint64 ring keeps the per-cycle scheduler scan on
	// eight slots per cache line instead of one robEntry per line.
	issueQ []uint64
	// issueWakeAt is the next cycle at which the scheduler scan can possibly
	// issue anything; issue() short-circuits before it. It is only set when
	// a scan issued nothing and every window entry carried a sound future
	// bound, is min-updated when dispatch inserts a new entry, and resets to
	// 0 (scan every cycle) on any squash. Window membership cannot otherwise
	// change while the scan sleeps: commit only retires issued entries, and
	// execute only happens inside a scan.
	issueWakeAt uint64
	// candBits is a bitmap over ring slots: bit seq&robMask is set iff the
	// entry is in flight and not issued. The scheduler walk iterates set
	// bits word-at-a-time instead of probing every ring slot, so the
	// committed-but-unretired and issued-in-shadow holes between candidates
	// cost one masked word load per 64 slots. Maintained at dispatch (set),
	// execute (clear) and unissue (set); committed entries are always
	// issued, so their bits are already clear.
	candBits []uint64
	// awakeBits is the subset of candBits the scheduler scan must actually
	// examine this cycle: entries that are due (their cached issue bound has
	// been reached), were just squashed (bound unknown), or were ready but
	// window/port-blocked. Everything else sits in the timing wheel below and
	// costs the scan nothing until its bound comes due.
	awakeBits []uint64
	// wheel is a 256-bucket calendar queue over the candidate slots: a parked
	// entry lives in bucket (bound & wheelMask) as one bit in that bucket's
	// candBits-shaped bitmap. Each scan drains the buckets for the cycles
	// since lastWheel and wakes entries whose bound (in issueQ) has arrived;
	// entries parked more than a wheel revolution ahead reappear early, see
	// their future bound, and are re-parked into the same bucket — one spare
	// visit per 256 cycles instead of one per scan. wheelBits summarises
	// which buckets are non-empty so drain and next-due search skip empties
	// word-at-a-time.
	wheel     []uint64
	wheelBits [wheelBuckets / 64]uint64
	lastWheel uint64
	// completeQ is a ring parallel to rob packing each entry's completion
	// cycle and class: completeAt<<completeShift | class. Valid only while
	// the entry is issued (issueQ carries issuedBit); commit and branch
	// resolution read it instead of the robEntry.
	completeQ []uint64
	// issueAtQ is a ring parallel to rob holding each entry's issue cycle,
	// valid while issued: the replay stale-check and squash-all shadow
	// comparisons read it.
	issueAtQ []uint64
	// sched is a ring parallel to rob; see schedEntry.
	sched     []schedEntry
	regProd   [isa.NumRegs]uint64
	replays   []replayEvent
	mshrs     []mshrEntry
	memQueued int // in-flight memory ops (LSQ occupancy)

	// Scratch buffers reused across cycles and runs so the simulation loop
	// does not allocate per event (profiled hot spots: replay squash
	// tracking and MSHR completion-time selection).
	//
	// The squash set is a ring-indexed stamp pair instead of a map: slot
	// seq&robMask is a member of the current squash event iff markEvent
	// carries the event's id and markSeq the exact sequence. Bumping
	// squashEvent invalidates the whole set in O(1), so the dependent-only
	// replay path pays neither hashing nor a per-event clear. The three
	// fields are pure intra-event scratch, never part of simulation state;
	// squashEvent only grows while the mark rings live (allocRings resets
	// all three together), so a stale stamp cannot alias a future event.
	squashEvent uint64
	markEvent   []uint64
	markSeq     []uint64
	mshrTimes   []uint64

	// Hot-loop event accumulator: next is the earliest cycle > now at which
	// anything can happen, maintained by noteEvent. Machine fields rather
	// than a per-iteration closure keep the steady-state loop free of
	// closure construction and escapes.
	now          uint64
	next         uint64
	iters        uint64
	lastProgress uint64

	// Fetch state.
	pending      isa.MicroOp
	havePending  bool
	streamDone   bool
	fetchBlockBy uint64 // sequence of unresolved mispredicted branch
	fetchBlocked bool
	lineReadyAt  uint64
	curLine      uint64
	haveCurLine  bool
	lastFetchAt  uint64 // last cycle with an i-cache read, stored +1 (reads recur per fetch cycle)

	res Result
}

// nextPow2 rounds n up to the next power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewMachine builds a machine over the given caches and stream.
func NewMachine(cfg Config, l1i, l1d *cache.L1, stream isa.Stream) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, l1i, l1d, stream); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitializes the machine in place for a new run over fresh caches
// and a new stream. It reuses the ROB ring (unless the configured size
// grew), the replay/MSHR scratch buffers and the branch predictor tables
// (cleared to their initial bias), and drops any installed tracer and
// context — a reset machine is indistinguishable from a newly constructed
// one, which the serial-vs-pooled equivalence tests pin.
func (m *Machine) Reset(cfg Config, l1i, l1d *cache.L1, stream isa.Stream) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if l1i == nil || l1d == nil || stream == nil {
		return fmt.Errorf("cpu: caches and stream are required")
	}
	m.cfg = cfg
	m.l1i = l1i
	m.l1d = l1d
	m.s = stream
	m.cursor, _ = stream.(*isa.Cursor)
	m.tracer = nil
	m.ctx = nil

	if cap := nextPow2(cfg.ROBSize); len(m.rob) != cap {
		m.allocRings(cap)
	} else {
		clear(m.rob)
		clear(m.issueQ)
		clear(m.candBits)
		clear(m.awakeBits)
		clear(m.wheel)
		clear(m.completeQ)
		clear(m.issueAtQ)
		clear(m.sched)
	}
	m.wheelBits = [wheelBuckets / 64]uint64{}
	m.lastWheel = 0
	if m.bp == nil {
		m.bp = NewPredictor(12)
	} else {
		m.bp.Reset()
	}
	m.headSeq, m.tailSeq = 0, 0
	m.issueWakeAt = 0
	for i := range m.regProd {
		m.regProd[i] = invalidSrc
	}
	if m.replays == nil {
		m.replays = make([]replayEvent, 0, 64)
	}
	m.replays = m.replays[:0]
	if m.mshrs == nil {
		m.mshrs = make([]mshrEntry, 0, cfg.MSHRs+cfg.LSQSize)
	}
	m.mshrs = m.mshrs[:0]
	if m.mshrTimes == nil {
		m.mshrTimes = make([]uint64, 0, cfg.MSHRs+cfg.LSQSize)
	}
	m.mshrTimes = m.mshrTimes[:0]
	m.memQueued = 0

	m.now, m.next, m.iters, m.lastProgress = 0, 0, 0, 0

	m.pending = isa.MicroOp{}
	m.havePending = false
	m.streamDone = false
	m.fetchBlockBy = 0
	m.fetchBlocked = false
	m.lineReadyAt = 0
	m.curLine = 0
	m.haveCurLine = false
	m.lastFetchAt = 0

	m.res = Result{}
	return nil
}

// allocRings (re)allocates the ROB ring and every parallel side ring and
// scratch buffer for the given power-of-two capacity (Reset, on a size
// change).
func (m *Machine) allocRings(cap int) {
	m.rob = make([]robEntry, cap)
	m.robMask = uint64(cap - 1)
	m.issueQ = make([]uint64, cap)
	m.candBits = make([]uint64, (cap+63)/64)
	m.awakeBits = make([]uint64, (cap+63)/64)
	m.wheel = make([]uint64, wheelBuckets*((cap+63)/64))
	m.completeQ = make([]uint64, cap)
	m.issueAtQ = make([]uint64, cap)
	m.sched = make([]schedEntry, cap)
	m.markEvent = make([]uint64, cap)
	m.markSeq = make([]uint64, cap)
	m.squashEvent = 0
}

// SetContext installs a cancellation context. Run polls it every few
// thousand simulated cycles: a cancelled (or deadline-exceeded) context makes
// Run return promptly with an error wrapping ctx.Err(), so serving layers can
// impose per-request timeouts on architectural runs. A nil context (the
// default) costs nothing on the hot loop.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

func (m *Machine) entry(seq uint64) *robEntry {
	return &m.rob[seq&m.robMask]
}

// parkSlot inserts a candidate slot into the timing wheel bucket for cycle
// `due` (its issueQ word holds the full bound, so wrapped entries re-park
// themselves when their bucket comes around early).
func (m *Machine) parkSlot(slot, due uint64) {
	b := due & wheelMask
	m.wheel[b*uint64(len(m.candBits))+slot>>6] |= uint64(1) << (slot & 63)
	m.wheelBits[b>>6] |= uint64(1) << (b & 63)
}

// nextWheelDue returns the next cycle > now whose wheel bucket is non-empty,
// or invalidSrc when the wheel is empty. For entries parked more than a
// revolution ahead this underestimates their true bound (the scan wakes,
// re-parks them and goes back to sleep), which costs a spare iteration but
// never delays an issue.
func (m *Machine) nextWheelDue(now uint64) uint64 {
	start := (now + 1) & wheelMask
	for k := uint64(0); k <= wheelBuckets/64; k++ {
		wi := (start>>6 + k) & (wheelBuckets/64 - 1)
		w := m.wheelBits[wi]
		if k == 0 {
			w &= ^uint64(0) << (start & 63)
		} else if k == wheelBuckets/64 {
			w &= uint64(1)<<(start&63) - 1
		}
		if w == 0 {
			continue
		}
		pos := wi<<6 | uint64(bits.TrailingZeros64(w))
		return now + 1 + (pos-start)&wheelMask
	}
	return invalidSrc
}

// dCacheAccess performs the data-cache access of a memory op whose execute
// stage begins at accTime, applying MSHR constraints, and returns the actual
// data latency from accTime.
func (m *Machine) dCacheAccess(op *isa.MicroOp, accTime uint64) (lat int, stall int) {
	res := m.l1d.Access(op.Addr, accTime, op.Class == isa.Store)
	m.res.PrechargeStallCycles += uint64(res.PrechargeStall)
	line := op.Addr >> 5
	if res.Hit {
		// A hit on a line whose fill is still in flight (hit-under-miss,
		// or a replayed load re-touching its own miss) waits for the fill.
		for i := range m.mshrs {
			e := &m.mshrs[i]
			if e.line == line && e.readyAt > accTime {
				return int(e.readyAt-accTime) + m.l1d.BaseLatency(), res.PrechargeStall
			}
		}
		return res.Latency, res.PrechargeStall
	}
	// Miss path: retire completed MSHRs, then merge with an outstanding
	// fetch of the same line or allocate a new MSHR; when all are busy the
	// miss waits for the oldest to retire.
	live := m.mshrs[:0]
	for _, e := range m.mshrs {
		if e.readyAt > accTime {
			live = append(live, e)
		}
	}
	m.mshrs = live
	for i := range m.mshrs {
		if m.mshrs[i].line == line {
			// Merge: data arrives with the outstanding fetch.
			return int(m.mshrs[i].readyAt-accTime) + m.l1d.BaseLatency(), res.PrechargeStall
		}
	}
	start := accTime
	if len(m.mshrs) >= m.cfg.MSHRs {
		// All MSHRs busy: requests queue FIFO, so this miss starts when
		// enough earlier fills retire to free a slot — the k-th smallest
		// completion among the outstanding ones, k = outstanding − cap.
		// Insertion sort on the reused scratch slice: the set is tiny
		// (≤ MSHRs + queued) and, unlike sort.Slice, allocation-free.
		k := len(m.mshrs) - m.cfg.MSHRs
		times := m.mshrTimes[:0]
		for _, e := range m.mshrs {
			times = append(times, e.readyAt)
		}
		insertionSortU64(times)
		m.mshrTimes = times
		if t := times[k]; t > start {
			start = t
		}
	}
	ready := start + uint64(res.Latency)
	m.mshrs = append(m.mshrs, mshrEntry{line: line, readyAt: ready})
	return int(ready - accTime), res.PrechargeStall
}

// insertionSortU64 sorts a small slice ascending without allocating.
func insertionSortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
