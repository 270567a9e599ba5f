// Compressing transports: delta-coded uplinks through a lossy codec
// (top-k / rand-k sparsification, b-bit quantization), optionally wrapped
// in error-feedback residual accumulation (SEAGuL/EF-SGD style: what the
// codec drops this round is added back into the next round's delta, so
// the compression error telescopes instead of accumulating).
//
// Every transfer reports its exact encoded wire size, so the runtime's
// bandwidth pricing (core.RunSpec.Network) charges compressed uploads
// proportionally less simulated time — compression genuinely buys
// sim-time, not just smaller counters.
package comm

import (
	"math"

	"repro/internal/prng"
	"repro/internal/quantize"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// codec is one lossy uplink compression scheme, in two steps so the
// transport can fall back between them: encode compresses delta into sc
// and returns the exact encoded wire size; apply then writes the
// server's reconstruction, dst[i] = ref[i] + rec[i] with rec the decoded
// (lossy) delta, and — when drop is non-nil — what the codec dropped,
// drop[i] = delta[i] - rec[i]. dst aliases neither ref nor delta. encode
// may overwrite dst, as scratch apply overwrites next, but must not fail
// after writing it: dst may alias the params a refused delta ships
// dense.
type codec interface {
	term() spec.Term
	// rejects reports whether encode can refuse a delta (non-finite
	// values); the transport then ships dense float32 and must find the
	// residual as it was, so such a codec's delta never accumulates into
	// it. A codec that does not reject gets drop == delta under error
	// feedback, and only rewrites the entries it kept.
	rejects() bool
	encode(sc *scratch, dst, delta []float64, clientID, round int) (int64, error)
	apply(sc *scratch, dst, ref, delta, drop []float64)
}

// scratch is the working set of one upload, recycled through the
// transport's free list: the delta when it cannot accumulate into the
// client's residual, rand-k's index permutation and stream, and the
// encoded form itself. Each part is sized on first use by the codec that
// needs it. Top-k selects in the upload's dst.
type scratch struct {
	delta  []float64
	idx    []int32
	rng    prng.Rand
	sparse quantize.Sparse
	quant  quantize.Quantized
}

// heldBytes is what sc holds, from capacities.
func (sc *scratch) heldBytes() int64 {
	return 8*int64(cap(sc.delta)) + 4*int64(cap(sc.idx)+cap(sc.sparse.Indices)+cap(sc.sparse.Values)) + int64(cap(sc.quant.Data))
}

// grow returns buf resized to n elements, contents unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// keepCount translates a sparsification ratio into an entry count:
// ceil(ratio*n), at least 1 (an empty upload carries no information).
func keepCount(ratio float64, n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// sparseCodec is the half top-k and rand-k share: they keep a subset of
// entries at float32 precision (sc.sparse) and never reject a delta.
type sparseCodec struct{}

func (sparseCodec) rejects() bool { return false }

// apply reconstructs every entry the codec did not keep as ref[i] + 0 (a
// -0.0 reference becomes +0.0, as it did when rec was a dense vector);
// such an entry drops its whole delta, which is already where drop
// points.
func (sparseCodec) apply(sc *scratch, dst, ref, delta, drop []float64) {
	for i, x := range ref {
		dst[i] = x + 0
	}
	for j, idx := range sc.sparse.Indices {
		v := float64(sc.sparse.Values[j])
		dst[idx] = ref[idx] + v
		if drop != nil {
			drop[idx] = delta[idx] - v
		}
	}
}

// topKCodec keeps the ratio*n largest-magnitude delta entries.
type topKCodec struct {
	sparseCodec
	ratio float64
}

func (c topKCodec) term() spec.Term { return spec.T("topk", c.ratio) }

// encode selects in dst, which TopKInto validates, with k, before it
// writes it.
func (c topKCodec) encode(sc *scratch, dst, delta []float64, clientID, round int) (int64, error) {
	if err := quantize.TopKInto(&sc.sparse, dst, delta, keepCount(c.ratio, len(delta))); err != nil {
		return 0, err
	}
	return sc.sparse.WireSize(), nil
}

// randkStream seeds rand-k's per-transfer index draws. The rng is derived
// statelessly from (clientID, round), so the codec carries no mutable
// state and resumes from a snapshot bit-for-bit with no serialization.
const randkStream uint64 = 0x72616e646b // "randk"

// randKCodec keeps ratio*n uniformly random delta entries — unbiased
// (in expectation the identity, scaled), unlike top-k.
type randKCodec struct {
	sparseCodec
	ratio float64
}

func (c randKCodec) term() spec.Term { return spec.T("randk", c.ratio) }

func (c randKCodec) encode(sc *scratch, dst, delta []float64, clientID, round int) (int64, error) {
	sc.rng.Reseed(int64(prng.Mix(prng.Mix(randkStream+uint64(clientID)) + uint64(round))))
	sc.idx = grow(sc.idx, len(delta))
	if err := quantize.RandKInto(&sc.sparse, sc.idx, delta, keepCount(c.ratio, len(delta)), &sc.rng); err != nil {
		return 0, err
	}
	return sc.sparse.WireSize(), nil
}

// quantCodec uniformly quantizes the delta to bits per element.
type quantCodec struct{ bits int }

func (c quantCodec) term() spec.Term {
	return spec.Term{Name: "q", Args: []float64{float64(c.bits)}, Glued: true}
}

func (c quantCodec) rejects() bool { return true }

func (c quantCodec) encode(sc *scratch, dst, delta []float64, clientID, round int) (int64, error) {
	if err := quantize.QuantizeInto(&sc.quant, delta, c.bits); err != nil {
		return 0, err
	}
	return sc.quant.WireSize(), nil
}

// apply dequantizes into dst, which doubles as the dense reconstruction
// until the reference is added onto it.
func (c quantCodec) apply(sc *scratch, dst, ref, delta, drop []float64) {
	sc.quant.DequantizeInto(dst)
	if drop != nil {
		tensor.SubInto(drop, delta, dst)
	}
	tensor.AddInto(dst, ref, dst)
}

// UpCode implements core.Coder: the upload reconstructed into dst, which
// may be params, uncounted; it returns the encoded size. A dense uplink
// ships params as DownCode ships a global. A coded one compresses the
// delta against ref (plus the client's error-feedback residual, *resid)
// through the codec; a delta the codec rejects (non-finite), or an
// upload with no reference, ships dense float32 and leaves the residual
// untouched. Under error feedback the first accepted upload stores a row
// in *resid: the storage *resid brings when it is empty with room for
// one, a fresh row otherwise. A row of another length is replaced, not
// used. The codec depends on nothing but the arguments and the pair
// (clientID, round), so the same call writes the same bits again.
//
//fedtripvet:hotpath
func (t *Transport) UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	n := len(params)
	if t.cod == nil || len(ref) != n {
		return t.dense(dst, params)
	}
	checkDst(dst, n)
	t.mu.Lock()
	sc := t.takeScratch()
	t.mu.Unlock()
	var row []float64
	prior := t.ef && len(*resid) == n
	switch {
	case prior:
		row = *resid
	case t.ef && cap(*resid) >= n:
		row = (*resid)[:n]
	case t.ef:
		row = make([]float64, n) //fedtripvet:allow first participation: the client's error-feedback row, retained by the runtime
	}
	// The delta accumulates straight into the residual when the codec
	// cannot reject it, into recycled scratch otherwise.
	delta := row
	if !t.ef || t.cod.rejects() {
		sc.delta = grow(sc.delta, n)
		delta = sc.delta
	}
	if prior {
		for i := range delta {
			delta[i] = params[i] - ref[i] + row[i]
		}
	} else {
		tensor.SubInto(delta, params, ref)
	}
	wire, err := t.cod.encode(sc, dst, delta, clientID, round)
	if err == nil {
		t.cod.apply(sc, dst, ref, delta, row)
		if t.ef && !prior {
			*resid = row
		}
	}
	t.mu.Lock()
	t.free = append(t.free, sc) //fedtripvet:allow free list, bounded by the number of concurrent uploads
	t.mu.Unlock()
	if err != nil {
		return t.dense(dst, params)
	}
	return wire
}

// takeScratch pops an idle scratch set, or starts a new one when every
// set is in use. Callers hold t.mu.
func (t *Transport) takeScratch() *scratch {
	if n := len(t.free); n > 0 {
		sc := t.free[n-1]
		t.free = t.free[:n-1]
		return sc
	}
	return &scratch{}
}
