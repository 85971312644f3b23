package cpu

import (
	"fmt"
	"math/bits"

	"nanocache/internal/isa"
)

// ctxPollMask controls how often Run polls an installed context for
// cancellation: every (ctxPollMask+1) loop iterations. With the event-skipping
// loop an iteration is a unit of actual work (or a jump to the next event), so
// the poll sits outside the idle fast path entirely; cancellation latency
// stays in the microseconds while the common (uncancelled) case pays one
// masked counter test per iteration.
const ctxPollMask = 8192 - 1

// idleSentinel marks "no future event noted yet" in the next-event
// accumulator.
const idleSentinel = ^uint64(0)

// noteEvent records a future cycle at which something can happen, feeding the
// idle-path event skip. It is a method over Machine fields rather than a
// per-iteration closure so the steady-state loop constructs nothing.
func (m *Machine) noteEvent(t uint64) {
	if t > m.now && t < m.next {
		m.next = t
	}
}

// Run executes the stream to completion (or cfg.MaxInstructions) and returns
// the processor-side results. It finishes both caches' accounting at the
// final cycle, so callers can price energy immediately afterwards. If a
// context was installed with SetContext, its cancellation aborts the run with
// an error wrapping ctx.Err(). It must be called at most once per Reset —
// cache accounting cannot be finalized twice.
//
// The loop is event-skipping: every pipeline phase notes the earliest future
// cycle it is waiting on, and when a cycle makes no progress the clock jumps
// straight to that cycle instead of stepping. The phases note strictly
// complete event sets (commit: head completion; issue: issueable times and
// producer readiness; dispatch: line fills and branch resolution; replays:
// detection times), so the skip lands exactly where the cycle-stepping loop
// would next have done work — results are bit-identical, which the goldens
// and the fresh-vs-replay equivalence tests pin. Steady state allocates
// nothing.
func (m *Machine) Run() (Result, error) {
	for {
		if m.ctx != nil && m.iters&ctxPollMask == 0 {
			if err := m.ctx.Err(); err != nil {
				return m.res, fmt.Errorf("cpu: run aborted at cycle %d: %w", m.now, err)
			}
		}
		m.iters++
		m.next = idleSentinel
		progressed := false

		m.processReplays(&progressed)
		if m.commit() {
			progressed = true
		}
		if m.issue() {
			progressed = true
		}
		if m.dispatch() {
			progressed = true
		}

		if m.streamDone && !m.havePending && m.headSeq == m.tailSeq {
			break
		}
		if m.cfg.MaxInstructions > 0 && m.res.Committed >= m.cfg.MaxInstructions {
			break
		}

		if progressed {
			m.lastProgress = m.now
			m.now++
			continue
		}
		// Idle: jump straight to the earliest noted future event. The
		// progress guard and context poll live outside this path — an idle
		// stretch of any length costs one iteration.
		next := m.next
		if next == idleSentinel || next <= m.now {
			next = m.now + 1
		}
		if next-m.lastProgress > 5_000_000 {
			return m.res, fmt.Errorf("cpu: no progress for 5M cycles at cycle %d (head=%d tail=%d)",
				m.now, m.headSeq, m.tailSeq)
		}
		m.now = next
	}
	m.res.Cycles = m.now
	if m.now > 0 {
		m.res.IPC = float64(m.res.Committed) / float64(m.now)
	}
	m.l1i.Finish(m.now)
	m.l1d.Finish(m.now)
	return m.res, nil
}

// LoopIters reports how many loop iterations the last Run executed. With
// event skipping this is proportional to the number of pipeline events, not
// simulated cycles; the idle-skip unit test bounds it.
func (m *Machine) LoopIters() uint64 { return m.iters }

// processReplays fires load-hit misspeculation events due at cycle now and
// notes pending detection times for event skipping.
func (m *Machine) processReplays(progressed *bool) {
	if len(m.replays) == 0 {
		return
	}
	now := m.now
	live := m.replays[:0]
	for _, ev := range m.replays {
		if ev.seq < m.headSeq {
			continue // load committed before detection mattered
		}
		slot := ev.seq & m.robMask
		if m.issueQ[slot] < issuedBit || m.issueAtQ[slot] != ev.issueAt {
			continue // the load itself was squashed and will re-run
		}
		if ev.detectAt > now {
			m.noteEvent(ev.detectAt)
			live = append(live, ev)
			continue
		}
		*progressed = true
		m.res.Replays++
		// Correct the load's announced readiness; dependents must wait.
		m.issueQ[slot] = issuedBit | ev.actual
		m.squashShadow(ev.seq, now)
	}
	m.replays = live
}

// squashShadow un-issues the instructions caught in a misspeculated load's
// speculative shadow, per the configured replay mode.
func (m *Machine) squashShadow(loadSeq uint64, now uint64) {
	if m.cfg.Replay == SquashAll {
		loadIssueAt := m.issueAtQ[loadSeq&m.robMask]
		for s := loadSeq + 1; s < m.tailSeq; s++ {
			j := s & m.robMask
			if m.issueQ[j] >= issuedBit && m.issueAtQ[j] >= loadIssueAt {
				m.unissue(s)
			}
		}
		return
	}
	// DependentOnly: transitively squash issued consumers of the load.
	// Membership is tracked by the ring-indexed stamp pair: sequences in
	// [loadSeq, tailSeq) occupy distinct ring slots, and bumping the event
	// id retires the previous event's marks without touching memory.
	m.squashEvent++
	ev := m.squashEvent
	mask := m.robMask
	m.markEvent[loadSeq&mask] = ev
	m.markSeq[loadSeq&mask] = loadSeq
	start := loadSeq + 1
	if start >= m.tailSeq {
		return
	}
	// Only issued entries can be squashed (an unissued dependent never
	// announced, so nothing downstream issued against it and the propagation
	// stops there anyway). A live entry is issued exactly when its candidate
	// bit is clear — dispatch sets the bit alongside a sub-issuedBit bound,
	// issue clears it as it stamps issuedBit, unissue restores both — so the
	// walk visits issued entries through the inverted candidate words,
	// skipping unissued runs (the common case in a misspeculated load's
	// shadow) a word at a time. unissue sets the squashed entry's candidate
	// bit back, but that bit is already consumed from the word snapshot, and
	// the two-segment ring walk preserves sequence order so transitive marks
	// propagate forward exactly as the linear walk's did.
	cand := m.candBits
	n := m.tailSeq - start
	lo := start & mask
	ringCap := mask + 1
	seg1 := n
	if lo+n > ringCap {
		seg1 = ringCap - lo
	}
	for seg := 0; seg < 2; seg++ {
		var wlo, whi, base uint64
		if seg == 0 {
			wlo, whi = lo, lo+seg1
			base = start - lo
		} else {
			if seg1 == n {
				break
			}
			wlo, whi = 0, n-seg1
			base = start + seg1
		}
		for wi := wlo >> 6; wi <= (whi-1)>>6; wi++ {
			rangeMask := ^uint64(0)
			if wi == wlo>>6 {
				rangeMask = ^uint64(0) << (wlo & 63)
			}
			if wi == (whi-1)>>6 && whi&63 != 0 {
				rangeMask &= uint64(1)<<(whi&63) - 1
			}
			isw := ^cand[wi] & rangeMask
			for isw != 0 {
				b := uint64(bits.TrailingZeros64(isw))
				isw &= isw - 1
				slot := wi<<6 | b
				sc := &m.sched[slot]
				depends := false
				for i := uint8(0); i < sc.n; i++ {
					if j := sc.src[i] & mask; m.markEvent[j] == ev && m.markSeq[j] == sc.src[i] {
						depends = true
						break
					}
				}
				if !depends {
					continue
				}
				m.unissue(base + slot)
				m.markEvent[slot] = ev
				m.markSeq[slot] = base + slot
			}
		}
	}
}

// unissue returns an entry to the scheduler and counts the wasted work.
func (m *Machine) unissue(seq uint64) {
	slot := seq & m.robMask
	if m.tracer != nil {
		m.trace(m.issueAtQ[slot], EvSquash, m.entry(seq))
	}
	// A squashed entry may reissue in the very cycle of the squash event
	// (its corrected producer can already be ready), so the cached issue
	// bound drops back to "check every cycle": the entry re-enters the scan
	// awake (an issued entry is never parked in the wheel) and any scan
	// sleep ends. The stale completeQ/issueAtQ words are dead until the
	// reissue rewrites them — every read is gated on issuedBit.
	m.issueQ[slot] = 0
	m.candBits[slot>>6] |= uint64(1) << (slot & 63)
	m.awakeBits[slot>>6] |= uint64(1) << (slot & 63)
	m.issueWakeAt = 0
	m.res.ReplayedUops++
}

// commit retires up to Width completed instructions from the ROB head.
// It reports whether anything committed and notes the head's completion
// time for event skipping.
func (m *Machine) commit() bool {
	now := m.now
	n := 0
	q, cq, mask := m.issueQ, m.completeQ, m.robMask
	head, tail, width := m.headSeq, m.tailSeq, m.cfg.Width
	for n < width && head < tail {
		slot := head & mask
		if q[slot] < issuedBit {
			m.headSeq = head
			return n > 0 // head not yet issued
		}
		cw := cq[slot]
		if completeAt := cw >> completeShift; now < completeAt {
			m.noteEvent(completeAt)
			m.headSeq = head
			return n > 0
		}
		switch isa.Class(cw & (1<<completeShift - 1)) {
		case isa.Load:
			m.memQueued--
			m.res.Loads++
		case isa.Store:
			m.memQueued--
			m.res.Stores++
		}
		if m.tracer != nil {
			m.trace(now, EvCommit, m.entry(head))
		}
		m.res.Committed++
		head++
		n++
		if m.cfg.ResizeInterval > 0 && m.res.Committed%m.cfg.ResizeInterval == 0 {
			m.l1d.ResizeTick(now)
			m.l1i.ResizeTick(now)
		}
	}
	m.headSeq = head
	return n > 0
}

// portBudget tracks per-cycle functional-unit and cache-port limits as six
// byte-wide counters packed in one word (total, mem ports, store ports, int
// multipliers, FP multipliers, FP ALUs), so resetting it every scheduler
// scan is a single constant load instead of a field-by-field struct write.
type portBudget uint64

const (
	budgetTotalMask  portBudget = 0xff
	budgetMemMask    portBudget = 0xff << 8
	budgetStoresMask portBudget = 0xff << 16
	budgetIntMulMask portBudget = 0xff << 24
	budgetFPMulMask  portBudget = 0xff << 32
	budgetFPALUMask  portBudget = 0xff << 40
	// 4 cache ports, 2 store ports, 2 int multipliers, 2 FP multipliers,
	// 4 FP ALUs per cycle.
	budgetUnits portBudget = 4<<8 | 2<<16 | 2<<24 | 2<<32 | 4<<40
)

func newPortBudget(width int) portBudget {
	return portBudget(width) | budgetUnits
}

func (b *portBudget) take(c isa.Class) bool {
	v := *b
	if v&budgetTotalMask == 0 {
		return false
	}
	need := portBudget(1)
	switch c {
	case isa.Load:
		if v&budgetMemMask == 0 {
			return false
		}
		need |= 1 << 8
	case isa.Store:
		if v&budgetMemMask == 0 || v&budgetStoresMask == 0 {
			return false
		}
		need |= 1<<8 | 1<<16
	case isa.IntMul:
		if v&budgetIntMulMask == 0 {
			return false
		}
		need |= 1 << 24
	case isa.FPMul:
		if v&budgetFPMulMask == 0 {
			return false
		}
		need |= 1 << 32
	case isa.FPALU:
		if v&budgetFPALUMask == 0 {
			return false
		}
		need |= 1 << 40
	}
	*b = v - need
	return true
}

// issue selects up to Width ready instructions from the oldest IQSize
// unissued entries and executes them.
//
// The scan is wheel-driven: candidates waiting on a known future cycle
// (front-end depth after dispatch, a producer's announced readiness) sit in
// the timing wheel and cost nothing per cycle; the scan drains the buckets
// that have come due since the last scan and then walks only the awake
// subset — due, squash-reopened, or previously blocked entries — in
// sequence order. The pre-wheel full-bitmap walk re-visited every parked
// candidate on every scan just to re-compare its cached bound (45% of
// walked slots on the profile).
//
// Issue decisions are identical to a full head-to-tail walk: a parked
// entry's bound is sound (announced readiness only ever moves later, and a
// squash reset wakes the entry immediately), so it could not have issued
// while parked, and its IQSize window position is preserved exactly because
// the walk ranks awake entries against the full candidate bitmap, parked
// candidates included.
func (m *Machine) issue() bool {
	now := m.now
	// Scan sleep: a previous scan proved nothing can issue before
	// issueWakeAt (no awake entry remained and the earliest wheel bucket is
	// not due), and the invalidation rules (unissue resets, new dispatches
	// min-update) keep the proof valid, so re-scanning earlier would be
	// pure overhead.
	if now < m.issueWakeAt {
		m.noteEvent(m.issueWakeAt)
		return false
	}
	q := m.issueQ
	mask := m.robMask
	cand := m.candBits
	awake := m.awakeBits
	words := uint64(len(cand))
	// Drain the wheel buckets for (lastWheel, now]. Bucket positions repeat
	// every wheelBuckets cycles, so a gap longer than one revolution only
	// needs the last revolution's worth of positions: any entry due inside
	// the skipped span has exactly one position in that window too.
	if m.lastWheel < now {
		from := m.lastWheel + 1
		if now-from >= wheelBuckets {
			from = now - wheelMask
		}
		for c := from; c <= now; c++ {
			b := c & wheelMask
			if m.wheelBits[b>>6]&(uint64(1)<<(b&63)) == 0 {
				continue
			}
			m.wheelBits[b>>6] &^= uint64(1) << (b & 63)
			base := b * words
			for wi := uint64(0); wi < words; wi++ {
				bw := m.wheel[base+wi]
				if bw == 0 {
					continue
				}
				m.wheel[base+wi] = 0
				for bw != 0 {
					slot := wi<<6 | uint64(bits.TrailingZeros64(bw))
					bw &= bw - 1
					if q[slot] <= now {
						awake[wi] |= uint64(1) << (slot & 63)
					} else {
						// Parked more than a revolution ahead: same bucket,
						// next revolution.
						m.parkSlot(slot, q[slot])
					}
				}
			}
		}
		m.lastWheel = now
	}
	budget := newPortBudget(m.cfg.Width)
	issued := 0
	rank := 0
	canSleep := true
	head := m.headSeq
	// Walk awake entries in sequence order — the ring range [head, tailSeq)
	// is at most two linear slot segments. The window rank of each awake
	// entry is its position among ALL unissued candidates (candBits), which
	// the walk accumulates from per-word snapshots; bits cleared by issues
	// earlier in this same scan still count, exactly as the full walk's
	// running `considered` index did.
	n := m.tailSeq - head
	lo := head & mask
	ringCap := mask + 1
	seg1 := n
	if lo+n > ringCap {
		seg1 = ringCap - lo
	}
	for seg := 0; seg < 2; seg++ {
		var wlo, whi uint64
		if seg == 0 {
			if n == 0 {
				break
			}
			wlo, whi = lo, lo+seg1
		} else {
			if seg1 == n {
				break
			}
			wlo, whi = 0, n-seg1
		}
		for wi := wlo >> 6; wi <= (whi-1)>>6; wi++ {
			rangeMask := ^uint64(0)
			if wi == wlo>>6 {
				rangeMask = ^uint64(0) << (wlo & 63)
			}
			if wi == (whi-1)>>6 && whi&63 != 0 {
				rangeMask &= uint64(1)<<(whi&63) - 1
			}
			candWord := cand[wi] & rangeMask
			aw := awake[wi] & rangeMask
			for aw != 0 {
				b := uint64(bits.TrailingZeros64(aw))
				bit := uint64(1) << b
				aw &= aw - 1
				slot := wi<<6 | b
				sc := &m.sched[slot]
				ready := true
				var waitUntil uint64
				for i := uint8(0); i < sc.n; i++ {
					src := sc.src[i]
					if src < head {
						continue // producer committed since dispatch
					}
					v := q[src&mask]
					if v >= issuedBit {
						if t := v &^ issuedBit; now < t {
							ready, waitUntil = false, t
							break
						}
					} else if v != 0 {
						// The producer cannot issue before its own cached
						// bound and announces at the earliest one cycle
						// after issuing (ExecLatency is always >= 1), so
						// bound+1 is sound even across later squashes.
						ready, waitUntil = false, v+1
						break
					} else {
						ready, waitUntil = false, 0 // readiness unknown
						break
					}
				}
				if !ready {
					if waitUntil > now {
						// Known future bound: cache it and park. If the
						// producer is later squashed the bound stays an
						// underestimate of the reissued announce time.
						q[slot] = waitUntil
						m.parkSlot(slot, waitUntil)
						awake[wi] &^= bit
					} else {
						// Readiness unknown (or a stale bound due this very
						// cycle): stay awake, re-check next cycle.
						canSleep = false
					}
					continue
				}
				// Window rank — position among ALL unissued candidates, not
				// just awake ones — is only needed once the entry is ready;
				// the fail paths above never consult it.
				idx := rank + bits.OnesCount64(candWord&(bit-1))
				if idx >= m.cfg.IQSize || !budget.take(sc.class) {
					// Ready but outside the issue window or out of ports
					// this cycle: it may issue next cycle, so the scan
					// cannot sleep.
					canSleep = false
					continue
				}
				if class := sc.class; class.IsMem() {
					m.executeMem(slot, class, now)
				} else {
					// Non-memory issue touches only the packed side rings;
					// the wide robEntry stays cold.
					lat := uint64(class.ExecLatency())
					q[slot] = issuedBit | (now + lat)
					m.completeQ[slot] = (now+uint64(m.cfg.IssueToExec)+lat)<<completeShift | uint64(class)
					m.issueAtQ[slot] = now
				}
				cand[wi] &^= bit
				awake[wi] &^= bit
				if m.tracer != nil {
					m.trace(now, EvIssue, &m.rob[slot])
				}
				issued++
			}
			rank += bits.OnesCount64(candWord)
		}
	}
	// The earliest parked bound caps how long the machine may idle-skip;
	// for entries a revolution out this underestimates (a spare wake), but
	// never overshoots a real issue opportunity.
	if nextDue := m.nextWheelDue(now); nextDue != invalidSrc {
		m.noteEvent(nextDue)
		if canSleep {
			m.issueWakeAt = nextDue
		} else {
			m.issueWakeAt = 0
		}
	} else if canSleep {
		// Nothing awake and nothing parked: only dispatch or a squash can
		// create issue work, and both reset the sleep.
		m.issueWakeAt = invalidSrc
	} else {
		m.issueWakeAt = 0
	}
	m.res.IssuedUops += uint64(issued)
	return issued > 0
}

// executeMem models the execution of the memory op in ring slot `slot`
// issued at cycle now, filling the packed side rings (announced readiness in
// issueQ, completion + class in completeQ, issue cycle in issueAtQ). Only
// memory ops read the robEntry — they need the address; the non-memory path
// inlined in issue() never touches it.
func (m *Machine) executeMem(slot uint64, class isa.Class, now uint64) {
	e := &m.rob[slot]
	var announce, completeAt uint64
	// Address generation (1 cycle into execute), then the cache.
	accTime := now + uint64(m.cfg.IssueToExec) + 1
	if class == isa.Load {
		actualLat, _ := m.dCacheAccess(&e.op, accTime)
		assumed := m.l1d.BaseLatency() + m.l1d.PolicyLatency()
		actualReady := now + 1 + uint64(actualLat)
		completeAt = accTime + uint64(actualLat)
		if m.cfg.LoadHitSpec {
			announce = now + 1 + uint64(assumed)
			if actualLat > assumed {
				// Misspeculation: detected when the cache response is due.
				m.replays = append(m.replays, replayEvent{
					seq:      e.seq,
					issueAt:  now,
					detectAt: announce + uint64(m.cfg.IssueToExec),
					actual:   actualReady,
				})
			}
		} else {
			// Without load-hit speculation dependents cannot issue until
			// the load resolves at the execute stage — the full
			// issue-to-execute delay is exposed on every load-use chain.
			announce = completeAt
		}
	} else {
		// Stores retire through the store buffer; the cache write's miss
		// latency is off the critical path, but a precharge stall holds
		// the port.
		_, stall := m.dCacheAccess(&e.op, accTime)
		completeAt = accTime + uint64(stall)
		announce = completeAt
	}
	m.issueQ[slot] = issuedBit | announce
	m.completeQ[slot] = completeAt<<completeShift | uint64(class)
	m.issueAtQ[slot] = now
}

// nextOp pulls the next micro-op from the stream into the pending slot,
// through the devirtualized cursor when the stream is a replayed trace.
func (m *Machine) nextOp() bool {
	if m.cursor != nil {
		return m.cursor.Next(&m.pending)
	}
	return m.s.Next(&m.pending)
}

// dispatch fetches up to Width micro-ops through the instruction cache into
// the ROB.
func (m *Machine) dispatch() bool {
	now := m.now
	if m.fetchBlocked {
		// Waiting on a mispredicted branch to resolve.
		if m.fetchBlockBy >= m.headSeq {
			slot := m.fetchBlockBy & m.robMask
			if m.issueQ[slot] < issuedBit {
				return false
			}
			if completeAt := m.completeQ[slot] >> completeShift; now < completeAt {
				m.noteEvent(completeAt)
				return false
			}
		}
		m.fetchBlocked = false
	}
	if now < m.lineReadyAt {
		m.noteEvent(m.lineReadyAt)
		return false
	}
	dispatched := 0
	for dispatched < m.cfg.Width {
		if m.tailSeq-m.headSeq >= uint64(m.cfg.ROBSize) {
			break // ROB full (ring capacity is the pow2 round-up; occupancy is exact)
		}
		if !m.havePending {
			if m.streamDone || !m.nextOp() {
				m.streamDone = true
				break
			}
			m.havePending = true
		}
		op := &m.pending
		if op.Class.IsMem() && m.memQueued >= m.cfg.LSQSize {
			break // LSQ full
		}
		// Instruction fetch: the i-cache is read on every fetching cycle
		// (the fetch group's line), plus once more per line crossing
		// within the cycle. The pipelined hit latency (and any uniform
		// policy latency, e.g. on-demand's +1) deepens the front end; only
		// miss service and precharge pull-up stalls actually block fetch.
		line := op.PC >> 5
		if !m.haveCurLine || line != m.curLine || m.lastFetchAt != now+1 {
			ir := m.l1i.Access(op.PC, now, false)
			m.curLine = line
			m.haveCurLine = true
			m.lastFetchAt = now + 1 // stored +1 so cycle 0 still reads
			stall := ir.Latency - m.l1i.BaseLatency() - m.l1i.PolicyLatency()
			if stall > 0 {
				// Miss or precharge stall: the line arrives later. The
				// retry re-accesses a now-resident line and proceeds.
				m.lineReadyAt = now + uint64(stall)
				m.noteEvent(m.lineReadyAt)
				break
			}
		}

		// Allocate the ROB entry. The stale side-ring words from the slot's
		// previous occupant are dead: issueQ is rewritten here, and every
		// completeQ/issueAtQ read is gated on issueQ's issuedBit.
		seq := m.tailSeq
		m.tailSeq++
		e := m.entry(seq)
		e.op = *op
		e.seq = seq
		issueableAt := now + uint64(m.cfg.FrontEndDepth) + uint64(m.l1i.PolicyLatency())
		slot := seq & m.robMask
		m.issueQ[slot] = issueableAt
		m.candBits[slot>>6] |= uint64(1) << (slot & 63)
		// The new entry parks in the wheel until the front end delivers it
		// (issueableAt is always in the future); a sleeping scheduler scan
		// must wake for it in case it lands inside the issue window.
		m.parkSlot(slot, issueableAt)
		if m.issueWakeAt > issueableAt {
			m.issueWakeAt = issueableAt
		}
		sc := &m.sched[slot]
		sc.class = op.Class
		// Sources pack densely in operand order (Src1, Src2, Base), so the
		// scheduler's first-unready source — whose announce time becomes the
		// entry's cached bound — is the same one a sparse layout would find.
		// Producers already committed (or registers never written) are
		// permanently ready and are pruned here instead of being re-checked
		// by every scan.
		ns := uint8(0)
		head := m.headSeq
		if op.Src1 != isa.None {
			if p := m.regProd[op.Src1]; p != invalidSrc && p >= head {
				sc.src[ns] = p
				ns++
			}
		}
		if op.Src2 != isa.None {
			if p := m.regProd[op.Src2]; p != invalidSrc && p >= head {
				sc.src[ns] = p
				ns++
			}
		}
		if op.Class.IsMem() {
			if op.Base != isa.None {
				if p := m.regProd[op.Base]; p != invalidSrc && p >= head {
					sc.src[ns] = p
					ns++
				}
			}
			m.memQueued++
			if m.cfg.Predecode && op.Class == isa.Load {
				// Predecode the base-register value into a subarray hint
				// as soon as the register is read (Sec. 6.3).
				m.l1d.Hint(op.BaseAddr(), now+2)
			}
		}
		sc.n = ns
		if op.Dst != isa.None {
			m.regProd[op.Dst] = seq
		}
		if m.tracer != nil {
			m.trace(now, EvDispatch, e)
		}
		m.havePending = false
		dispatched++

		if op.Class == isa.Branch {
			m.res.Branches++
			correct := m.bp.PredictAndUpdate(op.PC, op.Taken)
			if !correct {
				if m.tracer != nil {
					m.trace(now, EvMispredict, e)
				}
				m.res.Mispredicts++
				m.fetchBlocked = true
				m.fetchBlockBy = seq
				m.haveCurLine = false
				break
			}
			if op.Taken {
				// Taken branches end the fetch group. The sequential fetch
				// pipeline hides the base i-cache latency, but any extra
				// policy latency (on-demand's +1) is exposed on every
				// redirect as a fetch bubble — the paper's "slowed fetch
				// queue fill-up".
				m.haveCurLine = false
				if pl := m.l1i.PolicyLatency(); pl > 0 {
					m.lineReadyAt = now + 1 + uint64(pl)
				}
				break
			}
		}
	}
	return dispatched > 0
}

// Predictor exposes the branch predictor for reporting.
func (m *Machine) Predictor() *Predictor { return m.bp }
