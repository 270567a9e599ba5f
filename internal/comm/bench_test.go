package comm

import (
	"testing"

	"repro/internal/core"
)

// benchParams is the MLP-scale parameter count the transport benchmarks
// round-trip: large enough that header overhead is honest, small enough
// that one op is microseconds.
const benchParams = 40_000

// benchVectors is the global model and a trained copy of it the transport
// benchmarks and the allocation gate ship.
func benchVectors() (global, trained []float64) {
	global = make([]float64, benchParams)
	trained = make([]float64, benchParams)
	for i := range global {
		global[i] = float64(i%13) / 17
		trained[i] = global[i] + float64(i%7-3)/97
	}
	return global, trained
}

// transportWire is the one table of transport specs the benchmarks time
// and TestTransportWireBytes gates: the exact wire bytes of one dispatch
// round trip (downlink + uplink) at benchParams parameters. The counts
// are functions of the spec and the parameter count alone — the same on
// every run and machine — so any change is a wire-format change, never
// noise; if it is intended, the constant to edit is here, and the
// trajectory is `git log -p` on this file.
var transportWire = []struct {
	spec  string
	bytes int64
}{
	{"f32", 320_024},
	{"lossless", 640_000},
	{"q8", 200_037},
	{"q8+ef", 200_037},
	{"topk:0.01+ef", 163_220},
	{"randk:0.05", 176_020},
}

// benchDispatch returns one client's dispatch round trip the way the
// runtime does it — DownInto a reused buffer, then UpInto in place with
// that buffer as the reference — reporting the measured wire bytes.
func benchDispatch(tb testing.TB, spec string) func(round int) int64 {
	tb.Helper()
	trI, err := ParseTransport(spec)
	if err != nil {
		tb.Fatal(err)
	}
	tr := trI.(core.WireTransport)
	global, trained := benchVectors()
	received := make([]float64, benchParams)
	upload := make([]float64, benchParams)
	var resid []float64
	return func(round int) int64 {
		down := tr.DownInto(received, 1, round, global)
		copy(upload, trained)
		return down + tr.UpInto(upload, 1, round, upload, received, &resid)
	}
}

// BenchmarkTransport times one dispatch round trip per op and reports its
// wire bytes as commB/op. allocs/op is 0: the warm-up op before the timer
// pays the client's first participation, and past it the transfer path
// allocates nothing (TestTransportSteadyStateAllocFree).
func BenchmarkTransport(b *testing.B) {
	for _, w := range transportWire {
		b.Run(w.spec, func(b *testing.B) {
			dispatch := benchDispatch(b, w.spec)
			dispatch(0)
			b.ReportAllocs()
			b.ResetTimer()
			var wire int64
			for i := 0; i < b.N; i++ {
				wire += dispatch(i + 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "commB/op")
		})
	}
}

// TestTransportWireBytes is the commB gate: the first participation and
// the dispatches after it each put exactly the committed number of bytes
// on the wire.
func TestTransportWireBytes(t *testing.T) {
	for _, w := range transportWire {
		dispatch := benchDispatch(t, w.spec)
		for round := 0; round < 3; round++ {
			if got := dispatch(round); got != w.bytes {
				t.Errorf("%s: commB = %d per dispatch round trip (round %d), committed %d — "+
					"the encoded size changed; if intended, edit transportWire (bench_test.go)",
					w.spec, got, round, w.bytes)
				break
			}
		}
	}
}

// TestTransportSteadyStateAllocFree is the transfer path's allocation
// gate: once a client has participated (its residual exists, the scratch
// is sized), DownInto+UpInto allocate nothing, for every codec — from one
// goroutine, and from two at once, where each upload needs its own
// scratch set from the free list.
func TestTransportSteadyStateAllocFree(t *testing.T) {
	specs := []string{"f32", "lossless", "q8", "q8+ef", "q4+ef",
		"topk:0.01", "topk:0.01+ef", "randk:0.05", "randk:0.05+ef"}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			trI, err := ParseTransport(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr := trI.(core.WireTransport)
			global, trained := benchVectors()
			// One dispatcher per goroutine, each with the buffers a shard
			// engine and the upload pool would hand it.
			dispatcher := func(client int) func(round int) {
				received := make([]float64, benchParams)
				upload := make([]float64, benchParams)
				var resid []float64
				return func(round int) {
					tr.DownInto(received, client, round, global)
					copy(upload, trained)
					tr.UpInto(upload, client, round, upload, received, &resid)
				}
			}
			one, other := dispatcher(1), dispatcher(2)
			// The other goroutine runs one dispatch per token, so the
			// measured function controls how many of its transfers
			// overlap with its own.
			tokens, done := make(chan int), make(chan struct{})
			go func() {
				defer close(done)
				for round := range tokens {
					other(round)
					done <- struct{}{}
				}
			}()
			defer func() { close(tokens); <-done }()
			round := 0
			both := func() {
				round++
				tokens <- round
				one(round)
				<-done
			}
			// First participations; then, with the first scratch set held
			// back, a dispatch that has to start the second one — two
			// overlapping uploads must find both on the free list whether
			// or not the warm-up happened to overlap.
			both()
			if ct, ok := trI.(*CompressedTransport); ok {
				ct.mu.Lock()
				held := ct.takeScratch()
				ct.mu.Unlock()
				one(0)
				ct.mu.Lock()
				ct.free = append(ct.free, held)
				ct.mu.Unlock()
			}
			if n := testing.AllocsPerRun(20, func() { round++; one(round) }); n != 0 {
				t.Errorf("one goroutine: %v allocs per dispatch, want 0", n)
			}
			if n := testing.AllocsPerRun(20, both); n != 0 {
				t.Errorf("two goroutines: %v allocs per dispatch pair, want 0", n)
			}
		})
	}
}
