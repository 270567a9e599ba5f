// Package comm provides the client-server transports of the FL runtime:
// what a model transfer does to the vector that crosses the "network"
// and how many bytes it puts there. Two things are real instead of
// analytic:
//
//   - byte accounting: every transfer returns the exact size of its
//     encoding (internal/tensor's versioned float32 vector format, or a
//     codec's), and Stats counts them per direction;
//   - precision: clients and server genuinely see float32-rounded (or
//     codec-reconstructed) parameters, so transport effects show up in
//     accuracy.
//
// A transfer is not marshalled. The transports implement
// core.WireTransport: the runtime hands DownInto/UpInto a buffer it owns
// and the transport rounds the vector into it — float64(float32(x)) is
// what an encode→decode through the float32 format computes, and the
// codecs apply their reconstruction the same way — so a steady-state
// transfer allocates nothing. The marshalled encode→decode path
// (tensor.WriteVectorF32/ReadVectorF32, and the allocating codec chain)
// survives in this package's tests as the oracle the in-place path is
// pinned against bit for bit.
//
// Build one with ParseTransport and install it as core.Config.Transport.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Stats counts transport traffic. Safe for concurrent use.
type Stats struct {
	downBytes atomic.Int64
	upBytes   atomic.Int64
	downMsgs  atomic.Int64
	upMsgs    atomic.Int64
}

// DownBytes returns total server->client bytes.
func (s *Stats) DownBytes() int64 { return s.downBytes.Load() }

// UpBytes returns total client->server bytes.
func (s *Stats) UpBytes() int64 { return s.upBytes.Load() }

// TotalBytes returns traffic in both directions.
func (s *Stats) TotalBytes() int64 { return s.DownBytes() + s.UpBytes() }

// Messages returns the number of transfers in each direction.
func (s *Stats) Messages() (down, up int64) {
	return s.downMsgs.Load(), s.upMsgs.Load()
}

// String renders a compact summary.
func (s *Stats) String() string {
	d, u := s.Messages()
	return fmt.Sprintf("down %.2f MB (%d msgs), up %.2f MB (%d msgs)",
		float64(s.DownBytes())/1e6, d, float64(s.UpBytes())/1e6, u)
}

// down and up count one transfer of wire bytes and return wire.
func (s *Stats) down(wire int64) int64 {
	s.downBytes.Add(wire)
	s.downMsgs.Add(1)
	return wire
}

func (s *Stats) up(wire int64) int64 {
	s.upBytes.Add(wire)
	s.upMsgs.Add(1)
	return wire
}

// legacyMethods is the pre-destination-passing method set
// (core.Transport, core.SizedTransport) over an in-place transport: each
// call allocates its result and forwards to the Into method. The
// benchmark's trace wrapper still asserts this method set, so a traced
// pass runs through it and must reproduce the in-place digest. It is
// deleted, with core's adapter, by ROADMAP item 1's deletion, after its
// benchmark re-baseline.
type legacyMethods struct {
	wire core.WireTransport
	// delta marks a transport whose upload is coded against the
	// downlink: the legacy Up has no ref argument, so Down's result is
	// kept per client until that client's Up.
	delta bool
	mu    sync.Mutex
	ref   map[int][]float64
}

// Down implements core.Transport.
func (l *legacyMethods) Down(clientID, round int, global []float64) []float64 {
	out, _ := l.DownSized(clientID, round, global)
	return out
}

// Up implements core.Transport.
func (l *legacyMethods) Up(clientID, round int, params []float64) []float64 {
	out, _ := l.UpSized(clientID, round, params)
	return out
}

// DownSized implements core.SizedTransport.
func (l *legacyMethods) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	dst := make([]float64, len(global))
	wire := l.wire.DownInto(dst, clientID, round, global)
	if l.delta {
		l.mu.Lock()
		if l.ref == nil {
			l.ref = make(map[int][]float64)
		}
		l.ref[clientID] = dst
		l.mu.Unlock()
	}
	return dst, wire
}

// UpSized implements core.SizedTransport. An upload with no recorded
// downlink has no delta base and ships dense.
func (l *legacyMethods) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	var ref []float64
	if l.delta {
		l.mu.Lock()
		ref = l.ref[clientID]
		delete(l.ref, clientID)
		l.mu.Unlock()
	}
	dst := make([]float64, len(params))
	return dst, l.wire.UpInto(dst, clientID, round, params, ref)
}

// checkDst panics unless dst can take an n-element transfer: the runtime
// sizes dst from the vector it passes, so anything else is a caller bug.
func checkDst(dst []float64, n int) {
	if len(dst) != n {
		panic(fmt.Sprintf("comm: destination has %d elements, transfer %d", len(dst), n))
	}
}

// roundF32Into writes src at float32 precision into dst (which may be
// src): exactly what decoding the float32 wire encoding of src yields.
func roundF32Into(dst, src []float64) {
	checkDst(dst, len(src))
	for i, x := range src {
		dst[i] = float64(float32(x))
	}
}

// F32Transport rounds every transfer to the float32 wire precision.
type F32Transport struct {
	legacyMethods
	stats Stats
}

// NewF32Transport returns a transport with fresh counters.
func NewF32Transport() *F32Transport {
	t := &F32Transport{}
	t.legacyMethods.wire = t
	return t
}

// String names the transport for run fingerprints and banners.
func (t *F32Transport) String() string { return "f32" }

// Stats exposes the traffic counters.
func (t *F32Transport) Stats() *Stats { return &t.stats }

// WireBytes implements core.MeteredTransport.
func (t *F32Transport) WireBytes() (down, up int64) {
	return t.stats.DownBytes(), t.stats.UpBytes()
}

// DownInto implements core.WireTransport.
//
//fedtripvet:hotpath
func (t *F32Transport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	roundF32Into(dst, global)
	return t.stats.down(tensor.VectorWireSizeF32(len(global)))
}

// UpInto implements core.WireTransport; ref is not used.
//
//fedtripvet:hotpath
func (t *F32Transport) UpInto(dst []float64, clientID, round int, params, ref []float64) int64 {
	roundF32Into(dst, params)
	return t.stats.up(tensor.VectorWireSizeF32(len(params)))
}

// LosslessTransport is the identity transport with byte accounting at
// float64 width — useful to compare the cost of full-precision shipping.
type LosslessTransport struct {
	legacyMethods
	stats Stats
}

// NewLosslessTransport returns an identity transport with counters.
func NewLosslessTransport() *LosslessTransport {
	t := &LosslessTransport{}
	t.legacyMethods.wire = t
	return t
}

// String names the transport for run fingerprints and banners.
func (t *LosslessTransport) String() string { return "lossless" }

// Stats exposes the traffic counters.
func (t *LosslessTransport) Stats() *Stats { return &t.stats }

// WireBytes implements core.MeteredTransport.
func (t *LosslessTransport) WireBytes() (down, up int64) {
	return t.stats.DownBytes(), t.stats.UpBytes()
}

// DownInto implements core.WireTransport.
//
//fedtripvet:hotpath
func (t *LosslessTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	tensor.CopyInto(dst, global)
	return t.stats.down(int64(8 * len(global)))
}

// UpInto implements core.WireTransport; ref is not used.
//
//fedtripvet:hotpath
func (t *LosslessTransport) UpInto(dst []float64, clientID, round int, params, ref []float64) int64 {
	tensor.CopyInto(dst, params)
	return t.stats.up(int64(8 * len(params)))
}
