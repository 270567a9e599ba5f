package comm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/quantize"
	"repro/internal/tensor"
)

// The oracle: the transports as they were while every transfer was
// marshalled or allocated. The bodies below are the pre-in-place
// DownSized/UpSized and codecs, kept verbatim (only renamed) so the
// in-place path has a reference that shares none of its code.

type oracleCodec interface {
	compressInto(rec, delta []float64, clientID, round int) (int64, error)
}

type oracleTopK struct{ ratio float64 }

func (c oracleTopK) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
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

type oracleRandK struct{ ratio float64 }

func (c oracleRandK) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
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

type oracleQuant struct{ bits int }

func (c oracleQuant) compressInto(rec, delta []float64, clientID, round int) (int64, error) {
	q, err := quantize.Quantize(delta, c.bits)
	if err != nil {
		return 0, err
	}
	copy(rec, q.Dequantize())
	return q.WireSize(), nil
}

// oracleTransport is one reference transport. cod == nil is a dense
// transport: the float32 encode→decode round trip, or (lossless) the
// identity at 8 bytes per element.
type oracleTransport struct {
	cod      oracleCodec
	ef       bool
	lossless bool

	downBytes, upBytes, downMsgs, upMsgs int64
	ref                                  map[int][]float64
	resid                                map[int][]float64
}

func (t *oracleTransport) roundTrip(v []float64) []float64 {
	var buf bytes.Buffer
	if err := tensor.WriteVectorF32(&buf, v); err != nil {
		panic(fmt.Sprintf("comm: encode: %v", err))
	}
	out, err := tensor.ReadVectorF32(&buf)
	if err != nil {
		panic(fmt.Sprintf("comm: decode: %v", err))
	}
	return out
}

func (t *oracleTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	if t.lossless {
		t.downBytes += int64(8 * len(global))
		t.downMsgs++
		return global, int64(8 * len(global))
	}
	if t.cod == nil {
		out := t.roundTrip(global)
		t.downBytes += tensor.VectorWireSizeF32(len(global))
		t.downMsgs++
		return out, tensor.VectorWireSizeF32(len(global))
	}
	received := make([]float64, len(global))
	for i, x := range global {
		received[i] = float64(float32(x))
	}
	t.ref[clientID] = received
	wire := tensor.VectorWireSizeF32(len(global))
	t.downBytes += wire
	t.downMsgs++
	return received, wire
}

func (t *oracleTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	if t.lossless {
		t.upBytes += int64(8 * len(params))
		t.upMsgs++
		return params, int64(8 * len(params))
	}
	if t.cod == nil {
		out := t.roundTrip(params)
		t.upBytes += tensor.VectorWireSizeF32(len(params))
		t.upMsgs++
		return out, tensor.VectorWireSizeF32(len(params))
	}
	ref := t.ref[clientID]
	delete(t.ref, clientID)
	var resid []float64
	if t.ef {
		resid = t.resid[clientID]
	}
	if len(resid) != len(params) {
		resid = nil
	}
	if ref == nil || len(ref) != len(params) {
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
		tensor.SubInto(resid, delta, rec)
		t.resid[clientID] = resid
	}
	tensor.AddInto(ref, ref, rec)
	t.upBytes += wire
	t.upMsgs++
	return ref, wire
}

func (t *oracleTransport) denseFallback(params []float64) ([]float64, int64) {
	wire := tensor.VectorWireSizeF32(len(params))
	t.upBytes += wire
	t.upMsgs++
	out := make([]float64, len(params))
	for i, x := range params {
		out[i] = float64(float32(x))
	}
	return out, wire
}

// oracleFor builds the reference for the transport a spec parses to.
func oracleFor(t *testing.T, tr core.Transport) *oracleTransport {
	t.Helper()
	ct, ok := tr.(*Transport)
	if !ok {
		t.Fatalf("no oracle for %T", tr)
	}
	o := &oracleTransport{ef: ct.ef, lossless: ct.wide, ref: map[int][]float64{}, resid: map[int][]float64{}}
	switch c := ct.cod.(type) {
	case topKCodec:
		o.cod = oracleTopK{c.ratio}
	case randKCodec:
		o.cod = oracleRandK{c.ratio}
	case quantCodec:
		o.cod = oracleQuant{c.bits}
	}
	return o
}

// wireCase is one input family of the differential test: the global model
// and, per participation, what the client "trained" from what it
// received.
type wireCase struct {
	name   string
	global []float64
	train  func(part int, received []float64) []float64
}

func wireCases() []wireCase {
	rng := rand.New(rand.NewSource(11))
	normal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	drift := func(scale float64) func(int, []float64) []float64 {
		return func(part int, received []float64) []float64 {
			out := make([]float64, len(received))
			for i, x := range received {
				out[i] = x + scale*rng.NormFloat64()/float64(part+1)
			}
			return out
		}
	}
	inject := func(base func(int, []float64) []float64, at int, special ...float64) func(int, []float64) []float64 {
		return func(part int, received []float64) []float64 {
			out := base(part, received)
			if part == at {
				for j, x := range special {
					out[(7+31*j)%len(out)] = x
				}
			}
			return out
		}
	}
	negZero := normal(400)
	for i := 0; i < len(negZero); i += 3 {
		negZero[i] = math.Copysign(0, -1)
	}
	return []wireCase{
		{"random", normal(1000), drift(0.1)},
		// Non-finite entries in the second participation only: the q
		// codecs must fall back to dense there and pick the residual up
		// unchanged in the third; top-k selects the infinities.
		{"nan-inf", normal(500), inject(drift(0.1), 1, math.NaN(), math.Inf(1), math.Inf(-1))},
		// The crash fault's upload: alternating infinities, whose deltas
		// give top-k Inf-Inf = NaN residuals on the next participation.
		{"crash", normal(300), func(part int, received []float64) []float64 {
			out := make([]float64, len(received))
			for i := range out {
				out[i] = math.Inf(1 - 2*(i&1))
			}
			return out
		}},
		// -0.0 in the reference: ref + 0 is +0.0, a copy of ref is not.
		{"neg-zero-ref", negZero, func(part int, received []float64) []float64 {
			out := append([]float64(nil), received...)
			out[1] += 0.5
			out[2] = math.Copysign(0, -1)
			return out
		}},
		// Every delta has one of two magnitudes, so the top-k threshold
		// sits on a tie and the fill order decides.
		{"ties", make([]float64, 640), func(part int, received []float64) []float64 {
			out := make([]float64, len(received))
			for i := range out {
				out[i] = received[i] + 0.25*float64(1+i%2)*float64(1-2*(i/2%2))
			}
			return out
		}},
		{"all-equal", make([]float64, 256), func(part int, received []float64) []float64 {
			out := make([]float64, len(received))
			for i := range out {
				out[i] = received[i] + 0.125
			}
			return out
		}},
		{"length-1", []float64{0.3}, drift(0.5)},
	}
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestInPlaceMatchesEncodeDecodeOracle pins the in-place transfer path bit
// for bit against the marshalled/allocating one it replaced: received
// vectors, returned wire bytes, Stats and the stored residuals, over
// several participations of the same clients, through two routes —
// UpInto with dst aliasing params (what the runtime does) and UpInto into
// a disjoint buffer — each client's residual row kept here, as the
// runtime does. A downlink coded with dst aliasing global — how the
// runtime codes a version it holds as its float32 image — is the
// oracle's too.
func TestInPlaceMatchesEncodeDecodeOracle(t *testing.T) {
	specs := []string{"f32", "lossless",
		"q8", "q8+ef", "q4", "q4+ef", "topk:0.01", "topk:0.01+ef", "randk:0.05", "randk:0.05+ef"}
	const parts = 4
	for _, spec := range specs {
		for _, wc := range wireCases() {
			t.Run(spec+"/"+wc.name, func(t *testing.T) {
				parse := func() core.Transport {
					tr, err := ParseTransport(spec)
					if err != nil {
						t.Fatal(err)
					}
					return tr
				}
				aliased, disjoint := parse(), parse()
				aliasedRows, disjointRows := map[int]*[]float64{}, map[int]*[]float64{}
				oracle := oracleFor(t, aliased)
				n := len(wc.global)
				global := append([]float64(nil), wc.global...)
				for part := 0; part < parts; part++ {
					for _, client := range []int{3, 8} {
						round := 2*part + 1
						want, wantDown := oracle.DownSized(client, round, global)
						want = append([]float64(nil), want...) // the oracle reuses it as ref
						trained := wc.train(part, want)

						received := make([]float64, n)
						gotDown := aliased.(core.WireTransport).DownInto(received, client, round, global)
						if at := sameBits(received, want); at >= 0 || gotDown != wantDown {
							t.Fatalf("part %d client %d: downlink differs at %d (wire %d, want %d)", part, client, at, gotDown, wantDown)
						}
						self := append([]float64(nil), global...)
						if w := aliased.(core.Coder).DownCode(self, client, round, self); sameBits(self, want) >= 0 || w != wantDown {
							t.Fatalf("part %d client %d: a downlink coded over its global differs at %d (wire %d, want %d)", part, client, sameBits(self, want), w, wantDown)
						}
						received2 := make([]float64, n)
						disjoint.(core.WireTransport).DownInto(received2, client, round, global)

						wantUp, wantWire := oracle.UpSized(client, round, append([]float64(nil), trained...))

						inPlace := append([]float64(nil), trained...)
						gotWire := aliased.(core.WireTransport).UpInto(inPlace, client, round, inPlace, received, rowOf(aliasedRows, client))
						if at := sameBits(inPlace, wantUp); at >= 0 || gotWire != wantWire {
							t.Fatalf("part %d client %d: aliased upload differs at %d (got %v want %v; wire %d, want %d)",
								part, client, at, inPlace[max(at, 0)], wantUp[max(at, 0)], gotWire, wantWire)
						}
						if at := sameBits(received, want); at >= 0 {
							t.Fatalf("part %d client %d: UpInto wrote its ref at %d", part, client, at)
						}

						out := make([]float64, n)
						params := append([]float64(nil), trained...)
						gotWire = disjoint.(core.WireTransport).UpInto(out, client, round, params, received2, rowOf(disjointRows, client))
						if at := sameBits(out, wantUp); at >= 0 || gotWire != wantWire {
							t.Fatalf("part %d client %d: disjoint upload differs at %d (wire %d, want %d)", part, client, at, gotWire, wantWire)
						}
						if at := sameBits(params, trained); at >= 0 {
							t.Fatalf("part %d client %d: UpInto into a disjoint dst wrote params at %d", part, client, at)
						}

						at := fmt.Sprintf("part %d client %d", part, client)
						checkAgainstOracle(t, at+" aliased", aliased, kept(aliasedRows), oracle)
						checkAgainstOracle(t, at+" disjoint", disjoint, kept(disjointRows), oracle)
					}
					// The next global: wherever the uploads left the model.
					for i := range global {
						global[i] = 0.5*global[i] + 0.01*float64(i%5)
					}
				}
			})
		}
	}
}

// rowOf is a client's residual row in rows, created empty on first use:
// what the runtime hands UpInto is a pointer to the client's field.
func rowOf(rows map[int]*[]float64, client int) *[]float64 {
	if rows[client] == nil {
		rows[client] = new([]float64)
	}
	return rows[client]
}

// kept is the rows a transport has stored, by client.
func kept(rows map[int]*[]float64) map[int][]float64 {
	out := map[int][]float64{}
	for id, row := range rows {
		if *row != nil {
			out[id] = *row
		}
	}
	return out
}

// checkAgainstOracle compares a transport's counters, and the residual
// rows its route kept, with the oracle's.
func checkAgainstOracle(t *testing.T, at string, tr core.Transport, rows map[int][]float64, o *oracleTransport) {
	t.Helper()
	stats := tr.(interface{ Stats() *Stats }).Stats()
	downMsgs, upMsgs := stats.Messages()
	if stats.DownBytes() != o.downBytes || stats.UpBytes() != o.upBytes || downMsgs != o.downMsgs || upMsgs != o.upMsgs {
		t.Fatalf("%s: stats %s, oracle down %d B (%d msgs) up %d B (%d msgs)", at, stats, o.downBytes, o.downMsgs, o.upBytes, o.upMsgs)
	}
	if len(rows) != len(o.resid) {
		t.Fatalf("%s: %d residuals, oracle %d", at, len(rows), len(o.resid))
	}
	for id, want := range o.resid {
		if i := sameBits(rows[id], want); i >= 0 {
			t.Fatalf("%s: client %d residual differs at %d: %v, oracle %v", at, id, i, rows[id][i], want[i])
		}
	}
}

// A delta the q codec cannot encode ships dense float32 and must leave
// the client's residual exactly as it was — and a client whose first
// upload is refused gets no row at all (the oracle comparison above
// covers the values; this states the rule).
func TestNonFiniteQuantDeltaFallsBackAndKeepsResidual(t *testing.T) {
	trI, err := ParseTransport("q8+ef")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*Transport)
	global := []float64{0.5, -1.25, 2, 0.75}
	received := make([]float64, len(global))
	var resid, fresh []float64
	tr.DownInto(received, 2, 1, global)
	params := []float64{0.6, math.NaN(), 2.5, 0.7}
	tr.UpInto(params, 2, 1, params, received, &fresh)
	if fresh != nil {
		t.Fatalf("a refused first upload stored a residual row %v", fresh)
	}

	tr.DownInto(received, 1, 1, global)
	params = []float64{0.6, -1.0, 2.5, 0.7}
	tr.UpInto(params, 1, 1, params, received, &resid)
	before := append([]float64(nil), resid...)

	tr.DownInto(received, 1, 2, global)
	params = []float64{0.6, math.NaN(), 2.5, 0.7}
	wire := tr.UpInto(params, 1, 2, params, received, &resid)
	if wire != tensor.VectorWireSizeF32(len(global)) {
		t.Fatalf("non-finite delta shipped %d bytes, want the dense float32 size %d", wire, tensor.VectorWireSizeF32(len(global)))
	}
	if params[0] != float64(float32(0.6)) || !math.IsNaN(params[1]) {
		t.Fatalf("fallback upload %v is not params at float32 precision", params)
	}
	if at := sameBits(resid, before); at >= 0 {
		t.Fatalf("fallback touched the residual at %d: %v, was %v", at, resid[at], before[at])
	}
}

// TestUpCodeMatchesUpInto pins the uncounted transfers, the ones the
// runtime uses to replay a participation — what the client
// received, and its upload's error-feedback row — against DownInto,
// UpInto and the marshalled oracle over several participations of the
// same clients: the same downlink, reconstruction, wire sizes and rows
// bit for bit, with the transport's counters never moving. DownCode
// writes its dst alone. A first row goes into the scratch handed in as
// an empty *resid with room for it, which is neither dst, params nor
// ref, and a delta the codec refuses, or a dense uplink, leaves no row
// there.
func TestUpCodeMatchesUpInto(t *testing.T) {
	const parts = 4
	for _, spec := range []string{"topk:0.01+ef", "randk:0.05+ef", "q8+ef", "q4+ef", "f32", "lossless", "q8"} {
		for _, wc := range wireCases() {
			t.Run(spec+"/"+wc.name, func(t *testing.T) {
				parse := func() *Transport {
					tr, err := ParseTransport(spec)
					if err != nil {
						t.Fatal(err)
					}
					return tr.(*Transport)
				}
				metered, coded := parse(), parse()
				oracle := oracleFor(t, metered)
				meteredRows, codedRows := map[int]*[]float64{}, map[int]*[]float64{}
				n := len(wc.global)
				global := append([]float64(nil), wc.global...)
				for part := 0; part < parts; part++ {
					for _, client := range []int{3, 8} {
						round := 2*part + 1
						at := fmt.Sprintf("part %d client %d", part, client)
						want, _ := oracle.DownSized(client, round, global)
						want = append([]float64(nil), want...)
						received := make([]float64, n)
						downWire := metered.DownInto(received, client, round, global)
						before := append([]float64(nil), global...)
						coded1 := make([]float64, n)
						if w := coded.DownCode(coded1, client, round, global); w != downWire {
							t.Fatalf("%s: DownCode reports %d bytes, DownInto %d", at, w, downWire)
						}
						if i := sameBits(coded1, received); i >= 0 {
							t.Fatalf("%s: DownCode's downlink differs from DownInto's at %d", at, i)
						}
						if i := sameBits(global, before); i >= 0 {
							t.Fatalf("%s: DownCode wrote its global at %d", at, i)
						}
						trained := wc.train(part, want)
						wantUp, wantWire := oracle.UpSized(client, round, append([]float64(nil), trained...))

						up := append([]float64(nil), trained...)
						wire := metered.UpInto(up, client, round, up, received, rowOf(meteredRows, client))

						// The runtime's replay: dst aliases params, and a
						// client with no row brings scratch, poisoned so a
						// stale entry would show.
						row := rowOf(codedRows, client)
						var scratch []float64
						if *row == nil {
							scratch = make([]float64, n, n+1)
							for i := range scratch {
								scratch[i] = math.NaN()
							}
							*row = scratch[:0]
						}
						ref := append([]float64(nil), received...)
						coded2 := append([]float64(nil), trained...)
						codedWire := coded.UpCode(coded2, client, round, coded2, ref, row)
						if scratch != nil && len(*row) == 0 {
							*row = nil // no row stored: the client still has none
						}

						if i := sameBits(coded2, up); i >= 0 || codedWire != wire {
							t.Fatalf("%s: UpCode's upload differs from UpInto's at %d (wire %d, UpInto %d)", at, i, codedWire, wire)
						}
						if i := sameBits(coded2, wantUp); i >= 0 || codedWire != wantWire {
							t.Fatalf("%s: UpCode's upload differs from the oracle's at %d (wire %d, oracle %d)", at, i, codedWire, wantWire)
						}
						if i := sameBits(ref, received); i >= 0 {
							t.Fatalf("%s: UpCode wrote its ref at %d", at, i)
						}
						if i := sameBits(*row, *meteredRows[client]); i >= 0 {
							t.Fatalf("%s: UpCode's row differs from UpInto's at %d", at, i)
						}
						if scratch != nil && *row != nil {
							if &(*row)[0] != &scratch[0] || len(*row) != n {
								t.Fatalf("%s: the first row was not stored in the scratch handed in", at)
							}
							for _, v := range [][]float64{coded2, ref} {
								if &v[0] == &(*row)[0] {
									t.Fatalf("%s: the stored row aliases dst, params or ref", at)
								}
							}
						}
						oracleRow, ok := oracle.resid[client]
						if ok != (*row != nil) {
							t.Fatalf("%s: row stored %t, the oracle's %t", at, *row != nil, ok)
						}
						if i := sameBits(*row, oracleRow); ok && i >= 0 {
							t.Fatalf("%s: UpCode's row differs from the oracle's at %d", at, i)
						}
						if d, u := coded.Stats().Messages(); coded.Stats().TotalBytes() != 0 || d != 0 || u != 0 {
							t.Fatalf("%s: DownCode or UpCode moved the counters: %s", at, coded.Stats())
						}
					}
					for i := range global {
						global[i] = 0.5*global[i] + 0.01*float64(i%5)
					}
				}
			})
		}
	}
}
