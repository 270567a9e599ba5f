package core

import (
	"unsafe"

	"repro/internal/tensor"
)

// roundMean is a lock-step round's weighted mean, formed as its uploads
// arrive. Behind the gate every weight is known when the round opens —
// the policy weighs a client by its sample count at staleness 0 — so
// the merge's normalized weights are too, and each upload is screened
// and added into one |w| accumulator, in dispatch order, the moment the
// uploads before it have been: Axpy(w_i/T, x_i, acc) from +0 is, entry
// by entry, mergeBlocks' arithmetic in mergeBlocks' order, so the mean
// has the bits the merge of the whole buffer gives. The upload's buffer
// goes back to its pool at once, and a round holds the uploads a window
// of shards trains at a time, plus any that arrived ahead of an earlier
// one, instead of all K until the last has arrived.
//
// A screen that rejects an upload re-sums T without it. Before anything
// is folded that is exact; after, the folded part is rescaled by T/T′,
// which rounds once more than the merge of the whole buffer would.
type roundMean struct {
	// acc is Σ w_i/T · x_i over the uploads folded so far.
	acc []float64
	// w holds the selected clients' weights in dispatch order, a
	// rejected one's zeroed, and total their sum T, in that order.
	w     []float64
	total float64
	// next is the dispatch index of the next upload to fold; arrived
	// holds, by dispatch index, the jobs that arrived ahead of it.
	next    int
	arrived []*trainJob
	folded  bool
	// rd reads the upload being folded; finiteBase is the last base a
	// bitmap-patched upload was found finite against this round.
	rd         mergeRead
	finiteBase []float64
}

// foldsRounds reports whether a run's lock-step rounds fold their
// uploads as they arrive: every weight is fixed when the round opens and
// nothing but the weighted mean reads the round's uploads. The rest hold
// them and merge at the round's end: a robust policy, importance (its
// weight reads the training loss), a method's Aggregator, an OnUpdates
// hook, churn that can drop a client for good (a void changes T) and a
// fault model with nan or crash clients (each rejection changes T).
func foldsRounds(sp *RunSpec) bool {
	p := sp.Policy
	if sp.Runtime == RuntimeAsync || p.robust() || p.Kind == PolicyImportance || sp.OnUpdates != nil {
		return false
	}
	if _, ok := sp.Algo.(Aggregator); ok {
		return false
	}
	if sp.Churn != nil {
		for _, d := range sp.Churn.Drops {
			if d.Duration <= 0 {
				return false
			}
		}
	}
	return sp.Faults == nil || sp.Faults.Mode != "nan" && sp.Faults.CrashFraction == 0
}

func newRoundMean(n, k int) *roundMean {
	return &roundMean{acc: make([]float64, n), w: make([]float64, k), arrived: make([]*trainJob, k)}
}

// open starts the round of the selected clients: their weights and T,
// summed in dispatch order, and an accumulator of +0.
func (m *roundMean) open(p Policy, sel []*Client) {
	m.w, m.total = m.w[:len(sel)], 0
	for i, c := range sel {
		m.w[i] = p.Weight(Update{ClientID: c.ID, NumSamples: c.NumSamples()})
		m.total += m.w[i]
	}
	m.next, m.folded, m.finiteBase = 0, false, nil
	tensor.ZeroVec(m.acc)
}

// foldArrived folds j's upload once every upload dispatched before it has
// been folded, and with it every upload that waited on j. A folded
// upload's buffer goes back to its pool, and its job lets go of its
// version; the job stays in the round's buffer for the metrics.
//
//fedtripvet:hotpath
func (r *bufferedRunner) foldArrived(j *trainJob) {
	m := r.s.mean
	m.arrived[j.seq] = j
	for m.next < len(m.w) && m.arrived[m.next] != nil {
		bj := m.arrived[m.next]
		m.arrived[m.next] = nil
		r.s.fold(m, &bj.update)
		bj.update.recycle()
		r.release(bj)
		m.next++
	}
}

// fold screens u, the upload of dispatch index m.next, and adds it into
// the accumulator a block at a time through its reader.
//
//fedtripvet:hotpath
func (s *Server) fold(m *roundMean, u *Update) {
	i := m.next
	w := m.w[i]
	s.screen(&m.rd, u, &m.w[i], &m.finiteBase)
	if m.w[i] == 0 {
		if w != 0 {
			m.reweigh()
		}
		return
	}
	for lo := 0; lo < len(s.global); lo += chunkLen {
		hi := min(lo+chunkLen, len(s.global))
		tensor.Axpy(m.w[i]/m.total, m.rd.block(lo, hi, s.blockX[:], s.global), m.acc[lo:hi])
	}
	m.folded = true
}

// reweigh re-sums T after a rejection and rescales what is folded to it.
func (m *roundMean) reweigh() {
	var total float64
	for _, w := range m.w {
		total += w
	}
	if m.folded {
		tensor.Scale(m.total/total, m.acc)
	}
	m.total = total
}

// moveMean moves the global toward the round's mean at the merge rate eta,
// as the merge of the whole buffer would: not at all when every weight
// is zero or eta is.
func (s *Server) moveMean(m *roundMean, eta float64) {
	if m.total <= 0 || eta == 0 {
		return
	}
	s.moveBlock(0, m.acc, eta)
}

// bytes is what m holds.
func (m *roundMean) bytes() int64 {
	return 8*int64(cap(m.acc)+cap(m.w)) + int64(unsafe.Sizeof((*trainJob)(nil)))*int64(cap(m.arrived))
}
