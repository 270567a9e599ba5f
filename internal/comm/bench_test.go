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

// benchTransport round-trips one client dispatch per op the way the
// runtime does — DownInto a reused buffer, then UpInto in place with that
// buffer as the reference — and reports the measured wire bytes as
// commB/op. Byte counts are exact functions of the spec and the
// parameter count — deterministic across runs and machines — so CI gates
// commB/op the same way it gates allocs/op: any growth in a transport's
// encoded size is a real wire-format regression, not runner noise. And
// allocs/op is 0 past the client's first participation (which the
// warm-up op before the timer pays), so the root allocs/op gate covers
// the transfer path.
func benchTransport(b *testing.B, spec string) {
	trI, err := ParseTransport(spec)
	if err != nil {
		b.Fatal(err)
	}
	tr := trI.(core.WireTransport)
	global, trained := benchVectors()
	received := make([]float64, benchParams)
	upload := make([]float64, benchParams)
	dispatch := func(round int) int64 {
		down := tr.DownInto(received, 1, round, global)
		copy(upload, trained)
		return down + tr.UpInto(upload, 1, round, upload, received)
	}
	dispatch(0)
	b.ReportAllocs()
	b.ResetTimer()
	var wire int64
	for i := 0; i < b.N; i++ {
		wire += dispatch(i + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(wire)/float64(b.N), "commB/op")
}

func BenchmarkTransportF32(b *testing.B)      { benchTransport(b, "f32") }
func BenchmarkTransportLossless(b *testing.B) { benchTransport(b, "lossless") }
func BenchmarkTransportQ8(b *testing.B)       { benchTransport(b, "q8") }
func BenchmarkTransportQ8EF(b *testing.B)     { benchTransport(b, "q8+ef") }
func BenchmarkTransportTopKEF(b *testing.B)   { benchTransport(b, "topk:0.01+ef") }
func BenchmarkTransportRandK(b *testing.B)    { benchTransport(b, "randk:0.05") }

// The snapshot path is on the kill/resume critical section (the event
// loop is quiesced while it runs), so its cost is worth pinning too.
func BenchmarkTransportSnapshotState(b *testing.B) {
	trI, err := ParseTransport("topk:0.01+ef")
	if err != nil {
		b.Fatal(err)
	}
	tr := trI.(*CompressedTransport)
	global, _ := benchVectors()
	// Populate 64 clients' worth of residual state.
	received := make([]float64, benchParams)
	params := make([]float64, benchParams)
	for c := 0; c < 64; c++ {
		tr.DownInto(received, c, 0, global)
		copy(params, received)
		params[c%benchParams] += 0.5
		tr.UpInto(params, c, 0, params, received)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.SnapshotState(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Guard against the benchmark table silently drifting from the parse
// grammar: every spec the benchmarks pin must stay parseable.
func TestBenchTransportSpecsParse(t *testing.T) {
	for _, spec := range []string{"f32", "lossless", "q8", "q8+ef", "topk:0.01+ef", "randk:0.05"} {
		if _, err := ParseTransport(spec); err != nil {
			t.Errorf("ParseTransport(%q): %v", spec, err)
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
				return func(round int) {
					tr.DownInto(received, client, round, global)
					copy(upload, trained)
					tr.UpInto(upload, client, round, upload, received)
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
