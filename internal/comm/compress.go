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
	"sync"

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
// drop[i] = delta[i] - rec[i]. dst aliases neither ref nor delta.
type codec interface {
	term() spec.Term
	// rejects reports whether encode can refuse a delta (non-finite
	// values); the transport then ships dense float32 and must find the
	// residual as it was, so such a codec's delta never accumulates into
	// it. A codec that does not reject gets drop == delta under error
	// feedback, and only rewrites the entries it kept.
	rejects() bool
	encode(sc *scratch, delta []float64, clientID, round int) (int64, error)
	apply(sc *scratch, dst, ref, delta, drop []float64)
}

// scratch is the working set of one upload, recycled through the
// transport's free list: the delta when it cannot accumulate into the
// client's residual, top-k's magnitude column, rand-k's index
// permutation and stream, and the encoded form itself. Each part is
// sized on first use by the codec that needs it.
type scratch struct {
	delta  []float64
	mags   []float64
	idx    []int32
	rng    prng.Rand
	sparse quantize.Sparse
	quant  quantize.Quantized
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

func (c topKCodec) encode(sc *scratch, delta []float64, clientID, round int) (int64, error) {
	sc.mags = grow(sc.mags, len(delta))
	if err := quantize.TopKInto(&sc.sparse, sc.mags, delta, keepCount(c.ratio, len(delta))); err != nil {
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

func (c randKCodec) encode(sc *scratch, delta []float64, clientID, round int) (int64, error) {
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

func (c quantCodec) encode(sc *scratch, delta []float64, clientID, round int) (int64, error) {
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

// CompressedTransport is a float32 downlink and a codec-compressed,
// delta-encoded uplink: the server reconstructs
// w_k = w_received + decode(encode(w_trained - w_received [+ residual])).
// Build one with ParseTransport ("topk:0.01+ef", "q8", "randk:0.05").
//
// Every transfer returns its exact encoded size (priced by the network
// model), and the cumulative counters are in Stats.
//
// Memory: under the runtime the transport keeps no per-client state.
// Under error feedback the residual is the client's row, which the
// runtime owns, hands to UpInto and carries in run snapshots: |w|
// float64s per client that ever uploaded, stored at its first accepted
// upload. Where the runtime holds a first participation's rows as a
// recipe, a client seen once keeps none: its first upload's row goes to
// the runtime's scratch, and UpCode rebuilds it when the client returns
// (core's lazyrows.go). Everything else an
// upload needs is scratch on a free list that holds as many sets as
// uploads ever ran at once — the runtime's shard count — so a transfer
// past a client's first allocates nothing. A sync.Pool would not do: its
// contents die at every GC, and these are |w|-sized.
type CompressedTransport struct {
	legacyMethods
	spec string
	cod  codec
	ef   bool

	stats Stats
	mu    sync.Mutex // guards free
	free  []*scratch // idle upload scratch
}

// newCompressedTransport wires a codec into a transport. spec is the
// canonical form reproduced by String().
func newCompressedTransport(cod codec, ef bool) *CompressedTransport {
	text := cod.term().String()
	if ef {
		text = spec.Join(text, "ef")
	}
	t := &CompressedTransport{
		spec: text,
		cod:  cod,
		ef:   ef,
	}
	t.legacyMethods = legacyMethods{wire: t, delta: true}
	return t
}

// String returns the canonical transport spec (parseable by
// ParseTransport); run fingerprints embed it.
func (t *CompressedTransport) String() string { return t.spec }

// Stats exposes the traffic counters.
func (t *CompressedTransport) Stats() *Stats { return &t.stats }

// WireBytes implements core.MeteredTransport.
func (t *CompressedTransport) WireBytes() (down, up int64) {
	return t.stats.DownBytes(), t.stats.UpBytes()
}

// DownInto implements core.WireTransport: a float32 downlink. What it
// wrote into dst is the upload's delta base; the runtime hands it back
// to UpInto as ref.
//
//fedtripvet:hotpath
func (t *CompressedTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	roundF32Into(dst, global)
	return t.stats.down(tensor.VectorWireSizeF32(len(global)))
}

// UpInto implements core.WireTransport: UpCode's upload, counted in
// Stats.
//
//fedtripvet:hotpath
func (t *CompressedTransport) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return t.stats.up(t.UpCode(dst, clientID, round, params, ref, resid))
}

// UpCode implements core.UpCoder: the delta against ref (plus the
// client's error-feedback residual, *resid), compressed through the codec
// and reconstructed into dst, which may be params; it returns the encoded
// size and counts nothing. A delta the codec rejects (non-finite), or an
// upload with no reference, ships dense float32 and leaves the residual
// untouched. Under error feedback the first accepted upload stores a row
// in *resid: the storage *resid brings when it is empty with room for
// one, a fresh row otherwise. A row of another length is replaced, not
// used. The codec depends on nothing but the arguments and the pair
// (clientID, round), so the same call writes the same bits again.
//
//fedtripvet:hotpath
func (t *CompressedTransport) UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	n := len(params)
	if len(ref) != n {
		return denseUp(dst, params)
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
	wire, err := t.cod.encode(sc, delta, clientID, round)
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
		return denseUp(dst, params)
	}
	return wire
}

// takeScratch pops an idle scratch set, or starts a new one when every
// set is in use. Callers hold t.mu.
func (t *CompressedTransport) takeScratch() *scratch {
	if n := len(t.free); n > 0 {
		sc := t.free[n-1]
		t.free = t.free[:n-1]
		return sc
	}
	return &scratch{}
}

// denseUp ships params at float32 width and returns the encoded size.
func denseUp(dst, params []float64) int64 {
	roundF32Into(dst, params)
	return tensor.VectorWireSizeF32(len(params))
}
