package cpu

// Predictor is the "combination" branch predictor of the base configuration
// (Table 2): a bimodal table and a gshare table, arbitrated per branch by a
// chooser table, all of 2-bit saturating counters. Targets come from the
// trace (a perfect BTB), so only the direction is predicted — the dominant
// effect for pipeline-flush modeling.
type Predictor struct {
	bimodal []uint8
	gshare  []uint8
	chooser []uint8
	history uint64
	mask    uint64

	lookups, correct uint64
}

// NewPredictor builds a combination predictor with 2^bits entries per table.
func NewPredictor(bits uint) *Predictor {
	if bits == 0 || bits > 24 {
		bits = 12
	}
	n := 1 << bits
	p := &Predictor{
		bimodal: make([]uint8, n),
		gshare:  make([]uint8, n),
		chooser: make([]uint8, n),
		mask:    uint64(n - 1),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
		p.gshare[i] = 1
		p.chooser[i] = 1 // weakly prefer bimodal (gshare must earn trust)
	}
	return p
}

// Reset restores the predictor to its as-constructed state — all counters at
// their initial weak bias, history and statistics cleared — reusing the table
// storage. A reset predictor is indistinguishable from a fresh NewPredictor,
// which lets Machine.Reset recycle the three tables across runs.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1
		p.gshare[i] = 1
		p.chooser[i] = 1
	}
	p.history = 0
	p.lookups = 0
	p.correct = 0
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(c uint8, t bool) uint8 {
	if t {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// PredictAndUpdate predicts the direction of the branch at pc, trains all
// tables with the actual outcome, and reports whether the prediction was
// correct. This combined train-at-fetch form suits trace-driven simulation:
// the trace contains only the committed path, so updates are never undone.
func (p *Predictor) PredictAndUpdate(pc uint64, actual bool) bool {
	bi := (pc >> 2) & p.mask
	gi := ((pc >> 2) ^ p.history) & p.mask
	bPred := taken(p.bimodal[bi])
	gPred := taken(p.gshare[gi])
	pred := bPred
	if taken(p.chooser[bi]) {
		pred = gPred
	}

	// Train the chooser toward whichever component was right (only when
	// they disagree).
	if bPred != gPred {
		p.chooser[bi] = bump(p.chooser[bi], gPred == actual)
	}
	p.bimodal[bi] = bump(p.bimodal[bi], actual)
	p.gshare[gi] = bump(p.gshare[gi], actual)
	p.history = (p.history << 1) | boolBit(actual)

	p.lookups++
	if pred == actual {
		p.correct++
	}
	return pred == actual
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Accuracy returns the fraction of correct predictions so far.
func (p *Predictor) Accuracy() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.lookups)
}

// Lookups returns the number of predictions made.
func (p *Predictor) Lookups() uint64 { return p.lookups }
