// Package cache implements the architectural cache hierarchy of the paper's
// base system (Table 2): 32KB 2-way L1 instruction and data caches with
// 32-byte lines divided into subarrays, a 512KB 4-way unified L2, and a
// 100-cycle (+4 cycles per 8 bytes) memory. The L1s drive a precharge
// controller from internal/core on every access and record subarray
// reference locality for Figs. 5 and 6.
//
// Timing is handled by the caller (the cpu package): Access returns the
// latency composition of each access and the caller schedules around it.
// MSHR occupancy limits are likewise enforced by the load/store queue.
package cache

import (
	"fmt"
	"math/bits"

	"nanocache/internal/cacti"
	"nanocache/internal/core"
	"nanocache/internal/sram"
)

// Latencies collects the fixed hierarchy latencies of Table 2.
type Latencies struct {
	// L2 is the unified L2 access latency in cycles.
	L2 int
	// MemoryBase is the DRAM access latency in cycles.
	MemoryBase int
	// MemoryPer8B is the additional transfer time per 8 bytes.
	MemoryPer8B int
}

// DefaultLatencies returns the paper's Table 2 values.
func DefaultLatencies() Latencies {
	return Latencies{L2: 12, MemoryBase: 100, MemoryPer8B: 4}
}

// MissLatency returns the full latency of an L1 miss that hits in L2, or
// goes to memory, for the given line size.
func (l Latencies) MissLatency(l2Hit bool, lineBytes int) int {
	if l2Hit {
		return l.L2
	}
	return l.L2 + l.MemoryBase + l.MemoryPer8B*(lineBytes/8)
}

// AccessResult describes one L1 access.
type AccessResult struct {
	// Hit reports an L1 hit.
	Hit bool
	// L2Hit reports whether a miss was satisfied by the L2.
	L2Hit bool
	// Latency is the total cycles until data is available: the L1 pipeline
	// latency plus any policy latency, precharge stall, way-misprediction
	// re-probe, and miss service.
	Latency int
	// PrechargeStall is the portion of Latency caused by an isolated
	// subarray (gated-precharging mispredictions).
	PrechargeStall int
	// Subarray is the subarray the access mapped to.
	Subarray int
	// SingleWayRead reports that way prediction read only the predicted
	// way (one way's worth of dynamic energy instead of all ways).
	SingleWayRead bool
}

// L1 models one level-one cache array with subarray-grained precharge
// control.
type L1 struct {
	model *cacti.Model
	ctrl  core.Controller
	// ctrlStatic/ctrlGated devirtualize the two controllers on the hot sweep
	// path (the static baseline and every gated threshold point): storing the
	// concrete type makes the per-access AccessPenalty call direct — and
	// therefore inlinable — instead of an itab dispatch. extraLat hoists the
	// policy's ExtraAccessLatency, which is constant for every controller
	// (on-demand fixes it at construction), out of the per-access path.
	ctrlStatic *core.StaticPullUp
	ctrlGated  *core.Gated
	extraLat   int
	// resizer, when non-nil, masks the set index to the active fraction
	// and is consulted at interval boundaries; ctrl is then the resizer.
	resizer *core.Resizable
	loc     *sram.Locality
	next    *L2 // nil for no backing L2 (pure L1 studies)

	lineShift  uint
	sets       int
	setsPerSub int
	ways       int
	baseLat    int

	// fastIdx short-circuits the set and subarray index math to a mask and a
	// shift. It holds for every non-resizable cache whose set count and
	// sets-per-subarray are powers of two — all of the paper's geometries —
	// and turns the two hottest divisions of the access path (the pre-overhaul
	// profile's `% effectiveSets()` and `/ setsPerSub`) into single-cycle ops.
	// Resizable caches keep the general path: their effective set count
	// changes at interval boundaries and is not a power of two in general.
	fastIdx  bool
	setMask  uint64
	subShift uint

	// tags[set*ways+way] holds the line address; order within a set is
	// LRU: way 0 is MRU.
	tags  []uint64
	valid []bool

	// Way prediction (optional; Sec. 7 of the paper notes it composes
	// orthogonally with gated precharging): a per-set MRU-way table read
	// before the data array; a correct prediction reads one way, a wrong
	// one re-probes all ways a cycle later.
	wayPred        []uint8
	wayPredOK      uint64
	wayPredLookups uint64

	// Drowsy mode (optional; Kim et al., Sec. 7): cold subarrays drop to a
	// low-voltage state cutting cell-core leakage; hits on drowsy
	// subarrays pay a wake-up cycle.
	drowsy *core.Drowsy

	// Interval statistics for resizing decisions.
	intAccesses, intMisses uint64

	// Totals.
	accesses, misses, flushes uint64
	finished                  bool
}

// wayMispredictPenalty is the re-probe cost of a wrong way prediction.
const wayMispredictPenalty = 1

// NewL1 builds an L1 over the given cacti model, precharge controller and
// optional L2. loc may be nil to skip locality tracking.
func NewL1(m *cacti.Model, ctrl core.Controller, loc *sram.Locality, next *L2) (*L1, error) {
	if m == nil || ctrl == nil {
		return nil, fmt.Errorf("cache: model and controller are required")
	}
	g := m.Config().Geometry
	sets := m.SetCount()
	ways := m.Config().Ways
	setsPerSub := g.SubarrayBytes / (g.LineBytes * ways)
	if setsPerSub < 1 {
		setsPerSub = 1
	}
	c := &L1{
		model:      m,
		ctrl:       ctrl,
		loc:        loc,
		next:       next,
		lineShift:  uint(bits.TrailingZeros(uint(g.LineBytes))),
		sets:       sets,
		setsPerSub: setsPerSub,
		ways:       ways,
		baseLat:    m.AccessCycles(),
		tags:       make([]uint64, sets*ways),
		valid:      make([]bool, sets*ways),
	}
	c.extraLat = ctrl.ExtraAccessLatency()
	switch ct := ctrl.(type) {
	case *core.StaticPullUp:
		c.ctrlStatic = ct
	case *core.Gated:
		c.ctrlGated = ct
	}
	if _, isResizable := ctrl.(*core.Resizable); !isResizable &&
		sets&(sets-1) == 0 && setsPerSub&(setsPerSub-1) == 0 {
		c.fastIdx = true
		c.setMask = uint64(sets - 1)
		c.subShift = uint(bits.TrailingZeros(uint(setsPerSub)))
	}
	if r, ok := ctrl.(*core.Resizable); ok {
		c.resizer = r
		if r.Ledger().Subarrays() != g.NumSubarrays() {
			return nil, fmt.Errorf("cache: resizer sized for %d subarrays, cache has %d",
				r.Ledger().Subarrays(), g.NumSubarrays())
		}
	}
	if lw := ctrl.Ledger().Subarrays(); lw != g.NumSubarrays() {
		return nil, fmt.Errorf("cache: controller sized for %d subarrays, cache has %d",
			lw, g.NumSubarrays())
	}
	return c, nil
}

// effectiveSets returns the currently indexable set count (resizing masks
// the index to the active set fraction).
func (c *L1) effectiveSets() int {
	if c.resizer == nil {
		return c.sets
	}
	es := int(float64(c.sets) * c.resizer.ActiveSetFraction())
	if es < 1 {
		es = 1
	}
	return es
}

// effectiveWays returns the powered associativity (selective-ways resizing
// turns whole ways off).
func (c *L1) effectiveWays() int {
	if c.resizer == nil {
		return c.ways
	}
	w := c.resizer.ActiveWays()
	if w < 1 || w > c.ways {
		return c.ways
	}
	return w
}

// setFor maps an address to its (effective) set.
func (c *L1) setFor(addr uint64) int {
	if c.fastIdx {
		return int((addr >> c.lineShift) & c.setMask)
	}
	return int((addr >> c.lineShift) % uint64(c.effectiveSets()))
}

// subFor maps an (already computed) set to its subarray.
func (c *L1) subFor(set int) int {
	if c.fastIdx {
		return set >> c.subShift
	}
	if c.resizer == nil {
		return set / c.setsPerSub
	}
	k := c.resizer.ActiveSubarrays()
	es := c.effectiveSets()
	sub := set * k / es
	if sub >= k {
		sub = k - 1
	}
	return sub
}

// SubarrayFor maps an address to the subarray it would access under the
// current size. With resizing active, the set range and way count both
// shrink, and accesses pack into the first ActiveSubarrays subarrays.
func (c *L1) SubarrayFor(addr uint64) int {
	return c.subFor(c.setFor(addr))
}

// BaseLatency returns the pipelined L1 hit latency in cycles, excluding any
// policy effects.
func (c *L1) BaseLatency() int { return c.baseLat }

// EnableWayPrediction turns on the per-set MRU way predictor. It must be
// called before any access.
func (c *L1) EnableWayPrediction() {
	if c.accesses > 0 {
		panic("cache: way prediction must be enabled before use")
	}
	c.wayPred = make([]uint8, c.sets)
}

// WayPredictionStats returns lookups and correct predictions (zero when
// disabled).
func (c *L1) WayPredictionStats() (lookups, correct uint64) {
	return c.wayPredLookups, c.wayPredOK
}

// EnableDrowsy turns on drowsy mode with the given decay threshold and
// wake-up penalty. It must be called before any access.
func (c *L1) EnableDrowsy(threshold uint64, wakePenalty int) {
	if c.accesses > 0 {
		panic("cache: drowsy mode must be enabled before use")
	}
	c.drowsy = core.NewDrowsy(c.Subarrays(), threshold, wakePenalty)
}

// Drowsy exposes the drowsy tracker (nil when disabled).
func (c *L1) Drowsy() *core.Drowsy { return c.drowsy }

// PolicyLatency returns the uniform latency the precharge policy adds to
// every access (on-demand precharging).
func (c *L1) PolicyLatency() int { return c.extraLat }

// Hint forwards a predecoding prediction for the subarray of addr at cycle
// now to the precharge controller (Sec. 6.3).
func (c *L1) Hint(addr uint64, now uint64) {
	if c.ctrlGated != nil {
		c.ctrlGated.Hint(c.SubarrayFor(addr), now)
		return
	}
	c.ctrl.Hint(c.SubarrayFor(addr), now)
}

// accessPenalty dispatches the per-access precharge penalty through the
// devirtualized fast paths when the controller is one of the two hot types.
func (c *L1) accessPenalty(sub int, now uint64) int {
	switch {
	case c.ctrlStatic != nil:
		return c.ctrlStatic.AccessPenalty(sub, now)
	case c.ctrlGated != nil:
		return c.ctrlGated.AccessPenalty(sub, now)
	}
	return c.ctrl.AccessPenalty(sub, now)
}

// Access performs one read or write at cycle now and returns its result.
// Writes are modeled write-allocate; miss traffic probes the backing L2.
func (c *L1) Access(addr uint64, now uint64, write bool) AccessResult {
	set := c.setFor(addr)
	sub := c.subFor(set)
	stall := c.accessPenalty(sub, now)
	if c.loc != nil {
		c.loc.RecordAccess(sub, now)
	}
	c.accesses++
	c.intAccesses++

	res := AccessResult{
		Subarray:       sub,
		PrechargeStall: stall,
		Latency:        c.baseLat + c.extraLat + stall,
	}
	if c.drowsy != nil {
		wake := c.drowsy.Access(sub, now)
		res.Latency += wake
		stall += wake
		res.PrechargeStall += wake
	}
	// A precharge (or drowsy wake-up) stall only delays hits: on a miss the
	// one-cycle pull-up overlaps the many-cycle line fill. This is why the
	// paper's thrashing applications (ammp, art, health) tolerate very
	// aggressive thresholds (Sec. 6.4).
	undoStallOnMiss := stall

	line := addr >> c.lineShift
	base := set * c.ways
	ways := c.effectiveWays()
	for w := 0; w < ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			if c.wayPred != nil {
				c.wayPredLookups++
				if int(c.wayPred[set]) == w {
					// Correct prediction: only one way was read.
					c.wayPredOK++
					res.SingleWayRead = true
				} else {
					// Wrong way: re-probe all ways one cycle later.
					res.Latency += wayMispredictPenalty
				}
				c.wayPred[set] = 0 // after MRU rotation the hit way is way 0
			}
			// Hit: move to MRU.
			for ; w > 0; w-- {
				c.tags[base+w], c.tags[base+w-1] = c.tags[base+w-1], c.tags[base+w]
				c.valid[base+w], c.valid[base+w-1] = c.valid[base+w-1], c.valid[base+w]
			}
			res.Hit = true
			return res
		}
	}

	// Miss: fill from L2/memory, evict LRU.
	c.misses++
	c.intMisses++
	l2Hit := true
	l2Extra := 0
	if c.next != nil {
		l2Hit, l2Extra = c.next.Access(addr, now)
	}
	res.L2Hit = l2Hit
	res.PrechargeStall = 0
	res.Latency -= undoStallOnMiss
	lineBytes := 1 << c.lineShift
	res.Latency += DefaultLatencies().MissLatency(l2Hit, lineBytes) + l2Extra
	for w := ways - 1; w > 0; w-- {
		c.tags[base+w] = c.tags[base+w-1]
		c.valid[base+w] = c.valid[base+w-1]
	}
	c.tags[base] = line
	c.valid[base] = true
	if c.wayPred != nil {
		c.wayPred[set] = 0 // the fill lands in the MRU way
	}
	_ = write // write-allocate: identical array behaviour for this study
	return res
}

// ResizeTick ends a resizing interval at cycle now (the cpu calls it every
// resize-interval instructions). If the controller changes size the cache
// flushes, modeling the data remapping the paper charges resizable caches
// for (Sec. 6.4). Returns true on a resize.
func (c *L1) ResizeTick(now uint64) bool {
	if c.resizer == nil {
		return false
	}
	var miss float64
	if c.intAccesses > 0 {
		miss = float64(c.intMisses) / float64(c.intAccesses)
	}
	c.intAccesses, c.intMisses = 0, 0
	if !c.resizer.EndInterval(now, miss) {
		return false
	}
	c.Flush()
	return true
}

// Flush invalidates every line (used for resize remapping).
func (c *L1) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.flushes++
}

// Finish closes the precharge controller's accounting and the locality
// tracker at the end cycle.
func (c *L1) Finish(end uint64) {
	if c.finished {
		panic("cache: Finish called twice")
	}
	c.finished = true
	c.ctrl.Finish(end)
	if c.drowsy != nil {
		c.drowsy.Finish(end)
	}
	if c.loc != nil {
		c.loc.Finalize(end)
	}
}

// Stats returns aggregate counters.
func (c *L1) Stats() (accesses, misses, flushes uint64) {
	return c.accesses, c.misses, c.flushes
}

// MissRatio returns misses/accesses, or 0 before any access.
func (c *L1) MissRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Controller exposes the precharge controller.
func (c *L1) Controller() core.Controller { return c.ctrl }

// Locality exposes the locality tracker (may be nil).
func (c *L1) Locality() *sram.Locality { return c.loc }

// Model exposes the cacti model.
func (c *L1) Model() *cacti.Model { return c.model }

// Subarrays returns the subarray count.
func (c *L1) Subarrays() int { return c.model.Config().Geometry.NumSubarrays() }

// L2 is the unified second-level cache: 512KB, 4-way, 32B lines by default.
// It can optionally carry its own subarray precharge controller — the first
// application of bitline isolation was the Alpha 21164's L2 (Sec. 2 of the
// paper), where the delayed on-demand precharge amortizes over the long L2
// latency.
type L2 struct {
	sets, ways int
	setMask    uint64 // sets is power-of-two enforced at construction
	lineShift  uint
	tags       []uint64
	valid      []bool

	// Optional precharge control at subarray grain.
	ctrl       core.Controller
	setsPerSub int

	accesses, misses uint64
	extraCycles      uint64
	finished         bool
}

// NewL2 builds an L2 of the given total size, associativity and line size,
// with conventional static pull-up.
func NewL2(bytes, ways, lineBytes int) (*L2, error) {
	return NewL2WithPolicy(bytes, ways, lineBytes, 0, nil)
}

// NewL2WithPolicy builds an L2 whose subarrays (of subarrayBytes each) are
// driven by the given precharge controller. ctrl may be nil for the
// conventional cache; subarrayBytes defaults to 4KB when a controller is
// supplied.
func NewL2WithPolicy(bytes, ways, lineBytes, subarrayBytes int, ctrl core.Controller) (*L2, error) {
	if bytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid L2 shape %d/%d/%d", bytes, ways, lineBytes)
	}
	sets := bytes / (ways * lineBytes)
	if sets < 1 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: L2 set count %d not a power of two", sets)
	}
	c := &L2{
		sets:      sets,
		setMask:   uint64(sets - 1),
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		ctrl:      ctrl,
	}
	if ctrl != nil {
		if subarrayBytes <= 0 {
			subarrayBytes = 4 << 10
		}
		c.setsPerSub = subarrayBytes / (ways * lineBytes)
		if c.setsPerSub < 1 {
			c.setsPerSub = 1
		}
		n := (sets + c.setsPerSub - 1) / c.setsPerSub
		if ctrl.Ledger().Subarrays() != n {
			return nil, fmt.Errorf("cache: L2 controller sized for %d subarrays, cache has %d",
				ctrl.Ledger().Subarrays(), n)
		}
	}
	return c, nil
}

// DefaultL2 returns the paper's 512KB 4-way unified L2.
func DefaultL2() *L2 {
	l2, err := NewL2(512<<10, 4, 32)
	if err != nil {
		panic(err)
	}
	return l2
}

// L2Subarrays returns the subarray count of an L2 of the given shape with
// the given subarray size (for sizing controllers).
func L2Subarrays(bytes, ways, lineBytes, subarrayBytes int) int {
	if subarrayBytes <= 0 {
		subarrayBytes = 4 << 10
	}
	sets := bytes / (ways * lineBytes)
	setsPerSub := subarrayBytes / (ways * lineBytes)
	if setsPerSub < 1 {
		setsPerSub = 1
	}
	return (sets + setsPerSub - 1) / setsPerSub
}

// Access probes (and on miss, fills) the L2 at cycle now; it returns true
// on a hit. The second result is the extra latency the precharge policy
// imposes on this access (0 for the conventional cache).
func (c *L2) Access(addr uint64, now uint64) (hit bool, extra int) {
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	if c.ctrl != nil {
		extra = c.ctrl.AccessPenalty(set/c.setsPerSub, now) + c.ctrl.ExtraAccessLatency()
		c.extraCycles += uint64(extra)
	}
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			for ; w > 0; w-- {
				c.tags[base+w], c.tags[base+w-1] = c.tags[base+w-1], c.tags[base+w]
				c.valid[base+w], c.valid[base+w-1] = c.valid[base+w-1], c.valid[base+w]
			}
			return true, extra
		}
	}
	c.misses++
	for w := c.ways - 1; w > 0; w-- {
		c.tags[base+w] = c.tags[base+w-1]
		c.valid[base+w] = c.valid[base+w-1]
	}
	c.tags[base] = line
	c.valid[base] = true
	return false, extra
}

// Finish closes the precharge controller's accounting (no-op without one).
func (c *L2) Finish(end uint64) {
	if c.ctrl == nil {
		return
	}
	if c.finished {
		panic("cache: L2 Finish called twice")
	}
	c.finished = true
	c.ctrl.Finish(end)
}

// Controller exposes the L2's precharge controller (nil when conventional).
func (c *L2) Controller() core.Controller { return c.ctrl }

// Stats returns the access and miss counts.
func (c *L2) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// ExtraCycles returns the total policy-imposed latency cycles.
func (c *L2) ExtraCycles() uint64 { return c.extraCycles }
