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
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/prng"
	"repro/internal/quantize"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// codec is one lossy uplink compression scheme. compressInto writes the
// decoded (lossy) reconstruction of delta into rec — same length — and
// returns the exact encoded wire size in bytes. An error means delta is
// not encodable (non-finite values); the transport then falls back to
// dense float32 shipping.
type codec interface {
	compressInto(rec, delta []float64, clientID, round int) (int64, error)
	term() spec.Term
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

// topKCodec keeps the ratio*n largest-magnitude delta entries.
type topKCodec struct{ ratio float64 }

func (c topKCodec) term() spec.Term { return spec.T("topk", c.ratio) }

func (c topKCodec) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
	s, err := quantize.TopK(delta, keepCount(c.ratio, len(delta)))
	if err != nil {
		return 0, err
	}
	for i := range rec {
		rec[i] = 0
	}
	if err := s.DenseInto(rec); err != nil {
		return 0, err
	}
	return s.WireSize(), nil
}

// randkStream seeds rand-k's per-transfer index draws. The rng is derived
// statelessly from (clientID, round), so the codec carries no mutable
// state and resumes from a snapshot bit-for-bit with no serialization.
const randkStream uint64 = 0x72616e646b // "randk"

// randKCodec keeps ratio*n uniformly random delta entries — unbiased
// (in expectation the identity, scaled), unlike top-k.
type randKCodec struct{ ratio float64 }

func (c randKCodec) term() spec.Term { return spec.T("randk", c.ratio) }

func (c randKCodec) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
	rng := prng.New(int64(prng.Mix(prng.Mix(randkStream+uint64(clientID)) + uint64(round))))
	s, err := quantize.RandK(delta, keepCount(c.ratio, len(delta)), rng)
	if err != nil {
		return 0, err
	}
	for i := range rec {
		rec[i] = 0
	}
	if err := s.DenseInto(rec); err != nil {
		return 0, err
	}
	return s.WireSize(), nil
}

// quantCodec uniformly quantizes the delta to bits per element.
type quantCodec struct{ bits int }

func (c quantCodec) term() spec.Term {
	return spec.Term{Name: "q", Args: []float64{float64(c.bits)}, Glued: true}
}

func (c quantCodec) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
	q, err := quantize.Quantize(delta, c.bits)
	if err != nil {
		return 0, err
	}
	copy(rec, q.Dequantize())
	return q.WireSize(), nil
}

// CompressedTransport implements core.Transport with a float32 downlink
// and a codec-compressed, delta-encoded uplink: the server reconstructs
// w_k = w_received + decode(encode(w_trained - w_received [+ residual])).
// Build one with ParseTransport ("topk:0.01+ef", "q8", "randk:0.05").
//
// It implements core.SizedTransport (exact per-transfer bytes, priced by
// the network model), core.MeteredTransport (cumulative counters), and —
// when error feedback is on — core.StatefulTransport, so residuals ride
// in run snapshots and resume is bit-for-bit.
//
// Memory: downlink references live only while a dispatch is in flight
// (evicted on Up), bounding that map by the runtime's concurrency.
// Error-feedback residuals are inherently per-client state and grow with
// the number of distinct participating clients.
type CompressedTransport struct {
	spec string
	cod  codec
	ef   bool

	stats Stats
	mu    sync.Mutex
	ref   map[int][]float64 // per-in-flight-dispatch downlink reference
	resid map[int][]float64 // per-client EF residual (nil unless ef)
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
		ref:  make(map[int][]float64),
	}
	if ef {
		t.resid = make(map[int][]float64)
	}
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

// ErrorFeedback reports whether the uplink accumulates dropped mass.
func (t *CompressedTransport) ErrorFeedback() bool { return t.ef }

// Down implements core.Transport.
//
//fedtripvet:hotpath
func (t *CompressedTransport) Down(clientID, round int, global []float64) []float64 {
	out, _ := t.DownSized(clientID, round, global)
	return out
}

// DownSized implements core.SizedTransport: float32 downlink, recorded as
// the client's delta reference until its upload arrives.
//
//fedtripvet:hotpath
func (t *CompressedTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	received := make([]float64, len(global))
	for i, x := range global {
		received[i] = float64(float32(x))
	}
	t.mu.Lock()
	t.ref[clientID] = received
	t.mu.Unlock()
	wire := tensor.VectorWireSizeF32(len(global))
	t.stats.downBytes.Add(wire)
	t.stats.downMsgs.Add(1)
	return received, wire
}

// Up implements core.Transport.
//
//fedtripvet:hotpath
func (t *CompressedTransport) Up(clientID, round int, params []float64) []float64 {
	out, _ := t.UpSized(clientID, round, params)
	return out
}

// UpSized implements core.SizedTransport: delta against the recorded
// downlink (plus the EF residual), compressed through the codec. The
// downlink reference is evicted. Non-encodable deltas (non-finite) fall
// back to dense float32 and leave the residual untouched.
//
//fedtripvet:hotpath
func (t *CompressedTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	t.mu.Lock()
	ref := t.ref[clientID]
	delete(t.ref, clientID)
	var resid []float64
	if t.ef {
		resid = t.resid[clientID]
	}
	t.mu.Unlock()
	if len(resid) != len(params) {
		resid = nil
	}
	if ref == nil || len(ref) != len(params) {
		// No recorded downlink (shouldn't happen in a normal round loop):
		// no delta base, ship dense float32.
		return t.denseFallback(params)
	}
	delta := make([]float64, len(params))
	tensor.SubInto(delta, params, ref)
	if resid != nil {
		tensor.AddInto(delta, delta, resid)
	}
	rec := make([]float64, len(params))
	wire, err := t.cod.compressInto(rec, delta, clientID, round)
	if err != nil {
		return t.denseFallback(params)
	}
	if t.ef {
		if resid == nil {
			resid = make([]float64, len(params))
		}
		// The residual is exactly what the codec dropped this round.
		tensor.SubInto(resid, delta, rec)
		t.mu.Lock()
		t.resid[clientID] = resid
		t.mu.Unlock()
	}
	// Reconstruct in place over the reference; it leaves the transport as
	// the returned value (the runtime copies it immediately).
	tensor.AddInto(ref, ref, rec)
	t.stats.upBytes.Add(wire)
	t.stats.upMsgs.Add(1)
	return ref, wire
}

// denseFallback ships params at float32 width.
func (t *CompressedTransport) denseFallback(params []float64) ([]float64, int64) {
	wire := tensor.VectorWireSizeF32(len(params))
	t.stats.upBytes.Add(wire)
	t.stats.upMsgs.Add(1)
	out := make([]float64, len(params))
	for i, x := range params {
		out[i] = float64(float32(x))
	}
	return out, wire
}

// maxResidEntries caps RestoreState allocation against corrupt input.
const maxResidEntries = 1 << 24

// SnapshotState implements core.StatefulTransport: the EF residual map,
// sorted by client ID (float64 bit patterns, little endian). Downlink
// references are deliberately absent — snapshots are taken at quiesced
// round boundaries, where no dispatch is in flight.
func (t *CompressedTransport) SnapshotState(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.resid))
	for id := range t.resid {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := binary.Write(w, binary.LittleEndian, uint64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		v := t.resid[id]
		if err := binary.Write(w, binary.LittleEndian, uint64(id)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(v))); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState implements core.StatefulTransport, replacing any current
// residuals with the snapshot's.
func (t *CompressedTransport) RestoreState(r io.Reader) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("comm: transport state: %w", err)
	}
	if n > maxResidEntries {
		return fmt.Errorf("comm: transport state: %d residuals exceeds cap", n)
	}
	resid := make(map[int][]float64, n)
	for i := uint64(0); i < n; i++ {
		var id, ln uint64
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return fmt.Errorf("comm: transport state: %w", err)
		}
		if err := binary.Read(r, binary.LittleEndian, &ln); err != nil {
			return fmt.Errorf("comm: transport state: %w", err)
		}
		if ln > maxResidEntries {
			return fmt.Errorf("comm: transport state: residual length %d exceeds cap", ln)
		}
		v := make([]float64, ln)
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("comm: transport state: %w", err)
		}
		resid[int(id)] = v
	}
	t.mu.Lock()
	t.resid = resid
	t.ref = make(map[int][]float64)
	t.mu.Unlock()
	return nil
}
