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
// core.WireTransport: the runtime hands DownInto/UpInto a buffer it owns,
// which may be the vector itself, and the transport rounds the vector
// into it, entry by entry — float64(float32(x)) is
// what an encode→decode through the float32 format computes, and the
// codecs apply their reconstruction the same way — so a steady-state
// transfer allocates nothing. The marshalled encode→decode path
// (tensor.WriteVectorF32/ReadVectorF32, and the allocating codec chain)
// survives in this package's tests as the oracle the in-place path is
// pinned against bit for bit.
//
// A transport keeps no per-client state. What a delta-coding uplink
// needs from a client's past is handed to UpInto by the runtime: ref,
// what the client received, and under error feedback the client's
// residual row, which the runtime owns and carries in run snapshots.
//
// Every transport is one type, Transport, built by ParseTransport and
// installed as core.Config.Transport.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tensor"
)

// A legacy wrapper of a transport from this package (one offering only
// Down/Up and their sized forms, as the benchmark's tracer does) finds
// its unmetered codec by the spec it prints.
func init() {
	core.RegisterLegacyCoders(func(name string) core.Coder {
		t, err := ParseTransport(name)
		if err != nil {
			return nil
		}
		c, _ := t.(core.Coder)
		return c
	})
}

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
// pass runs through it and must reproduce the in-place digest. The
// legacy Up has no argument for the delta base or the error-feedback
// row: under the runtime both come through core.LegacyUpload, and outside
// a run an upload has neither and ships dense. It keeps nothing per
// client. It is deleted, with core's adapter, by ROADMAP item 1's
// deletion, after its benchmark re-baseline.
type legacyMethods struct{ wire core.WireTransport }

// Down implements core.Transport.
func (l legacyMethods) Down(clientID, round int, global []float64) []float64 {
	out, _ := l.DownSized(clientID, round, global)
	return out
}

// Up implements core.Transport.
func (l legacyMethods) Up(clientID, round int, params []float64) []float64 {
	out, _ := l.UpSized(clientID, round, params)
	return out
}

// DownSized implements core.SizedTransport.
func (l legacyMethods) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	dst := make([]float64, len(global))
	return dst, l.wire.DownInto(dst, clientID, round, global)
}

// UpSized implements core.SizedTransport.
func (l legacyMethods) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	ref, resid := core.LegacyUpload(params)
	dst := make([]float64, len(params))
	return dst, l.wire.UpInto(dst, clientID, round, params, ref, resid)
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

// Transport is every transport ParseTransport builds: a dense downlink
// and an uplink that is dense too ("f32", "lossless") or delta-coded
// through a lossy codec, optionally with error feedback ("q8",
// "topk:0.01+ef", "randk:0.05"). A dense transfer is rounded to float32
// and sized as its float32 encoding, or under "lossless" (wide) shipped
// as it is at float64 width. The coded uplink is in compress.go.
//
// Every transfer returns its exact encoded size (priced by the network
// model), and the cumulative counters are in Stats. DownCode and UpCode
// are the two transfers uncounted (core.Coder); DownInto and UpInto call
// them and count once.
//
// Memory: the transport keeps no per-client state, on either route: the
// legacy wrappers allocate each result and forward, and find the delta
// base and the row the runtime files for them (core.LegacyUpload).
// Under error feedback the residual is the client's row, which the
// runtime owns, hands to UpInto and carries in run snapshots: |w|
// float64s per client that ever uploaded, stored at its first accepted
// upload. Where the runtime holds a client's rows as a recipe chain, the
// client keeps neither that row nor a copy of what it received: each
// upload's row goes to the runtime's scratch, and DownCode and UpCode
// derive both again, link by link, when the client returns (core's
// lazyrows.go). Everything else a coded upload needs is scratch on a
// free list that holds as many sets as uploads ever ran at once — the
// runtime's shard count — so a transfer past a client's first allocates
// nothing. A sync.Pool would not do: its contents die at every GC, and
// these are |w|-sized.
type Transport struct {
	legacyMethods
	spec string
	cod  codec // nil: a dense uplink
	ef   bool
	wide bool // dense transfers at float64 width, unrounded

	stats Stats
	mu    sync.Mutex // guards free
	free  []*scratch // idle upload scratch
}

// newTransport names a transport by its canonical spec (String) and
// wires in its uplink codec, nil for a dense one.
func newTransport(spec string, cod codec, ef, wide bool) *Transport {
	t := &Transport{spec: spec, cod: cod, ef: ef, wide: wide}
	t.legacyMethods = legacyMethods{wire: t}
	return t
}

// String returns the canonical transport spec (parseable by
// ParseTransport); run fingerprints embed it.
func (t *Transport) String() string { return t.spec }

// Stats exposes the traffic counters.
func (t *Transport) Stats() *Stats { return &t.stats }

// WireBytes implements core.MeteredTransport.
func (t *Transport) WireBytes() (down, up int64) {
	return t.stats.DownBytes(), t.stats.UpBytes()
}

// HeldBytes reports what the transport keeps between uploads: the idle
// upload scratch on its free list, from capacities. The runtime's
// Footprint reads it when no upload runs.
func (t *Transport) HeldBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b int64
	for _, sc := range t.free {
		b += sc.heldBytes()
	}
	return b
}

// DownInto implements core.WireTransport: DownCode's downlink, counted
// in Stats. What it wrote into dst is a coded upload's delta base; the
// runtime hands it back to UpInto as ref.
//
//fedtripvet:hotpath
func (t *Transport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	return t.stats.down(t.DownCode(dst, clientID, round, global))
}

// DownCode implements core.Coder: the dense downlink of global into dst,
// which may be global, uncounted. It depends on global alone, so every
// client of a model version receives the same bits; and a float32
// downlink's result codes to itself, so the runtime holds each version
// as it, in float32.
//
//fedtripvet:hotpath
func (t *Transport) DownCode(dst []float64, clientID, round int, global []float64) int64 {
	return t.dense(dst, global)
}

// UpInto implements core.WireTransport: UpCode's upload, counted in
// Stats.
//
//fedtripvet:hotpath
func (t *Transport) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return t.stats.up(t.UpCode(dst, clientID, round, params, ref, resid))
}

// dense writes src into dst as a dense transfer carries it and returns
// the encoded size: rounded to float32, or as it is at float64 width.
func (t *Transport) dense(dst, src []float64) int64 {
	if t.wide {
		tensor.CopyInto(dst, src)
		return int64(8 * len(src))
	}
	roundF32Into(dst, src)
	return tensor.VectorWireSizeF32(len(src))
}
