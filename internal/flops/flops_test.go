package flops

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Total() != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Add(100)
	c.Add(23)
	if c.Total() != 123 {
		t.Fatalf("got %d want 123", c.Total())
	}
	if g := c.GFLOPs(); g != 123e-9 {
		t.Fatalf("GFLOPs = %v", g)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5) // must not panic
	if c.Total() != 0 {
		t.Fatal("nil counter total")
	}
	c.Reset()
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(3)
			}
		}()
	}
	wg.Wait()
	if c.Total() != 8*1000*3 {
		t.Fatalf("total %d", c.Total())
	}
}

func TestCommBytes(t *testing.T) {
	mc := ModelCost{Params: 1000}
	if mc.CommBytesFloat64() != 8000 {
		t.Fatalf("f64 bytes %d", mc.CommBytesFloat64())
	}
	if mc.CommBytesFloat32() != 4000 {
		t.Fatalf("f32 bytes %d", mc.CommBytesFloat32())
	}
}

func TestAttachCostFormulas(t *testing.T) {
	mc := ModelCost{Params: 1000, Forward: 5000, Backward: 10000}
	rp := RoundParams{K: 12, M: 50, N: 600, P: 1}
	cases := []struct {
		method string
		flops  float64
		comm   float64
	}{
		{"fedavg", 0, 0},
		{"fedprox", 2 * 12 * 1000, 0},
		{"fedtrip", 4 * 12 * 1000, 0},
		{"feddyn", 4 * 12 * 1000, 0},
		{"slowmo", 4 * 1000, 0},
		{"moon", 12 * 50 * 2 * 5000, 0},
		{"scaffold", 2*13*1000 + 600*15000, 2},
		{"feddane", 2*12*1000 + 600*15000, 2},
		{"mimelite", 600 * 15000, 2},
		{"fedgkd", 12 * 50 * 5000, 0},
		{"fednova", 4 * 1000, 0},
	}
	for _, c := range cases {
		got, err := AttachCost(c.method, mc, rp)
		if err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		if got.AttachFLOPs != c.flops {
			t.Errorf("%s attach FLOPs = %v want %v", c.method, got.AttachFLOPs, c.flops)
		}
		if got.ExtraCommFactor != c.comm {
			t.Errorf("%s extra comm = %v want %v", c.method, got.ExtraCommFactor, c.comm)
		}
	}
}

func TestAttachCostUnknown(t *testing.T) {
	if _, err := AttachCost("nope", ModelCost{}, RoundParams{}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

// Table VIII ordering claims: MOON's attaching cost dwarfs FedTrip's, and
// FedTrip costs exactly twice FedProx.
func TestPaperCostOrdering(t *testing.T) {
	// CNN-like numbers: FP is ~342x |w| per the paper's Appendix A remark.
	mc := ModelCost{Params: 620_000, Forward: 342 * 620_000, Backward: 2 * 342 * 620_000}
	rp := RoundParams{K: 12, M: 50, N: 600, P: 1}
	trip, _ := AttachCost("fedtrip", mc, rp)
	prox, _ := AttachCost("fedprox", mc, rp)
	moon, _ := AttachCost("moon", mc, rp)
	if trip.AttachFLOPs != 2*prox.AttachFLOPs {
		t.Fatalf("fedtrip %v != 2x fedprox %v", trip.AttachFLOPs, prox.AttachFLOPs)
	}
	if moon.AttachFLOPs < 50*trip.AttachFLOPs {
		t.Fatalf("moon %v should be >>50x fedtrip %v", moon.AttachFLOPs, trip.AttachFLOPs)
	}
}

func TestTrainFLOPsPerRound(t *testing.T) {
	mc := ModelCost{Params: 100, Forward: 1000, Backward: 2000}
	rp := RoundParams{K: 4, M: 10, N: 40}
	got, err := TrainFLOPsPerRound("fedprox", mc, rp)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*10*3000.0 + 2*4*100.0
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
	if _, err := TrainFLOPsPerRound("bogus", mc, rp); err == nil {
		t.Fatal("want error")
	}
}
