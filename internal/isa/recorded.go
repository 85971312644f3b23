package isa

// Recorded is an immutable, fully decoded dynamic instruction trace.
//
// It is the stream-side half of the sweep engine's shared-trace replay: a
// threshold sweep re-runs the same out-of-order simulation once per policy
// point, and the dynamic micro-op sequence is *policy-invariant* — the
// committed-path trace the generator emits does not depend on cache timing.
// Recording the stream once and replaying it per point removes the
// regeneration cost from every sweep point, the way Wattch's trace-driven
// sim-fast mode removes functional simulation from SimpleScalar timing runs
// and CACTI precomputes its technology tables.
//
// A Recorded is safe for concurrent replay: it is never mutated after
// Record returns, and every replayer owns its own Cursor position.
type Recorded struct {
	ops []MicroOp
}

// Record drains up to max micro-ops from s into an immutable trace
// (max == 0 drains s to exhaustion; a bounded max guards against unbounded
// generators, which are the common case — wrap the cap the experiment would
// have applied via Limit). The returned trace replays exactly the sequence
// a fresh identically-constructed stream would produce.
func Record(s Stream, max uint64) *Recorded {
	var ops []MicroOp
	if max > 0 {
		ops = make([]MicroOp, 0, max)
	}
	var op MicroOp
	for max == 0 || uint64(len(ops)) < max {
		if !s.Next(&op) {
			break
		}
		ops = append(ops, op)
	}
	return &Recorded{ops: ops}
}

// RecordedFromOps builds a trace from an explicit op slice (tests, captured
// traces). The slice is copied so the trace stays immutable.
func RecordedFromOps(ops []MicroOp) *Recorded {
	return &Recorded{ops: append([]MicroOp(nil), ops...)}
}

// Len returns the number of recorded micro-ops.
func (r *Recorded) Len() int { return len(r.ops) }

// At returns the i-th micro-op (for inspection; replay goes through Cursor).
func (r *Recorded) At(i int) MicroOp { return r.ops[i] }

// Cursor returns a fresh replayer positioned at the start of the trace.
// Cursors are cheap (a slice header and an index); callers that replay in a
// tight loop can instead embed a Cursor value and Attach it, which is
// allocation-free.
func (r *Recorded) Cursor() *Cursor {
	c := &Cursor{}
	c.Attach(r)
	return c
}

// Cursor replays a Recorded trace as a Stream. The zero value is an empty
// stream; Attach points it at a trace. A Cursor must not be shared between
// goroutines, but any number of Cursors may replay the same Recorded
// concurrently.
type Cursor struct {
	ops []MicroOp
	pos int
}

// Attach (re)points the cursor at the start of r without allocating, so a
// long-lived worker can replay many traces through one Cursor value.
func (c *Cursor) Attach(r *Recorded) {
	c.ops = r.ops
	c.pos = 0
}

// Reset rewinds the cursor to the start of its trace.
func (c *Cursor) Reset() { c.pos = 0 }

// Next implements Stream.
func (c *Cursor) Next(op *MicroOp) bool {
	if c.pos >= len(c.ops) {
		return false
	}
	*op = c.ops[c.pos]
	c.pos++
	return true
}

var _ Stream = (*Cursor)(nil)
