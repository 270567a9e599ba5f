package algos

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// The distillation gradient must match finite differences of DistillLoss
// with respect to the student logits.
func TestFedGKDGradientMatchesLoss(t *testing.T) {
	f := &FedGKD{Gamma: 0.7, Tau: 2}
	rng := rand.New(rand.NewSource(3))
	n, k := 5, 8
	student := tensor.New(n, k)
	teacher := tensor.New(n, k)
	student.RandNormal(rng, 1)
	teacher.RandNormal(rng, 1)

	// Analytic gradient via the same code path LogitGrad uses.
	grad := tensor.New(n, k)
	scale := f.Gamma * f.Tau / float64(n)
	pS := make([]float64, k)
	pT := make([]float64, k)
	for i := 0; i < n; i++ {
		softmaxInto(student.Data[i*k:(i+1)*k], f.Tau, pS)
		softmaxInto(teacher.Data[i*k:(i+1)*k], f.Tau, pT)
		for j := 0; j < k; j++ {
			grad.Data[i*k+j] = scale * (pS[j] - pT[j])
		}
	}
	const h = 1e-6
	for probe := 0; probe < 40; probe++ {
		i := rng.Intn(n * k)
		orig := student.Data[i]
		student.Data[i] = orig + h
		lp := f.DistillLoss(student, teacher)
		student.Data[i] = orig - h
		lm := f.DistillLoss(student, teacher)
		student.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5*math.Max(1, math.Abs(num)) {
			t.Fatalf("coord %d: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

// When student == teacher the distillation gradient vanishes.
func TestFedGKDZeroWhenAligned(t *testing.T) {
	f := &FedGKD{Gamma: 1, Tau: 2}
	rng := rand.New(rand.NewSource(4))
	z := tensor.New(3, 5)
	z.RandNormal(rng, 1)
	if loss := f.DistillLoss(z, z); math.Abs(loss) > 1e-12 {
		t.Fatalf("self-distillation loss %v", loss)
	}
}

func TestSoftmaxIntoProperties(t *testing.T) {
	out := make([]float64, 4)
	softmaxInto([]float64{1000, 0, -1000, 500}, 1, out)
	var sum float64
	for _, v := range out {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("bad softmax value %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	// Higher temperature flattens the distribution.
	sharp := make([]float64, 3)
	soft := make([]float64, 3)
	softmaxInto([]float64{2, 1, 0}, 0.5, sharp)
	softmaxInto([]float64{2, 1, 0}, 5, soft)
	if sharp[0] <= soft[0] {
		t.Fatal("temperature did not sharpen")
	}
}

func TestFedGKDEndToEnd(t *testing.T) {
	algo, err := New("fedgkd", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if algo.(*FedGKD).Gamma != 0.2 || algo.(*FedGKD).Tau != 2 {
		t.Fatal("fedgkd defaults")
	}
	res, err := core.Start(core.RunSpec{Config: testConfig(t, algo)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 || res.TotalGFLOPs() <= 0 {
		t.Fatal("fedgkd run incomplete")
	}
	// One extra forward per batch: more FLOPs than FedAvg, less than MOON.
	avg, _ := New("fedavg", Params{})
	rAvg, err := core.Start(core.RunSpec{Config: testConfig(t, avg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGFLOPs() <= rAvg.TotalGFLOPs() {
		t.Fatal("fedgkd should cost more than fedavg (teacher forward)")
	}
}

func TestFedNovaEqualStepsMatchesFedAvg(t *testing.T) {
	// With equal data sizes and step counts FedNova reduces exactly to
	// FedAvg aggregation.
	f := &FedNova{}
	global := make([]float64, 4)
	u1 := core.Update{ClientID: 0, Params: []float64{1, 1, 1, 1}, NumSamples: 60, Steps: 3}
	u2 := core.Update{ClientID: 1, Params: []float64{3, 3, 3, 3}, NumSamples: 60, Steps: 3}
	next := f.Aggregate(1, global, []core.Update{u1, u2})
	for i := range next {
		if math.Abs(next[i]-2) > 1e-12 {
			t.Fatalf("next[%d]=%v want 2 (plain average)", i, next[i])
		}
	}
}

func TestFedNovaNormalisesUnequalSteps(t *testing.T) {
	// tau_k is what a client executed (Update.Steps), not what its data
	// size and the configuration imply: B holds as much data as A but a
	// step budget stopped it after 2 of 4 steps. A's update direction must
	// be downweighted per step while the effective step count preserves
	// scale.
	f := &FedNova{}
	global := []float64{0}
	// Both clients moved by -4 from global. tau_A=4, tau_B=2, p_A=p_B=1/2.
	uA := core.Update{ClientID: 0, Params: []float64{-4}, NumSamples: 40, Steps: 4}
	uB := core.Update{ClientID: 1, Params: []float64{-4}, NumSamples: 40, Steps: 2}
	next := f.Aggregate(1, global, []core.Update{uA, uB})
	// d_A = (0-(-4))/4 = 1, d_B = 4/2 = 2; dir = 1/2*1 + 1/2*2 = 3/2;
	// tau_eff = 1/2*4 + 1/2*2 = 3; next = 0 - 3*3/2 = -9/2. Normalising
	// both by the configured 4 steps would give the plain average, -4.
	want := -4.5
	if math.Abs(next[0]-want) > 1e-12 {
		t.Fatalf("next %v want %v", next[0], want)
	}
	// Unequal data sizes on top: p_A=2/3, p_B=1/3; dir = 2/3*1 + 1/3*2 =
	// 4/3; tau_eff = 2/3*4 + 1/3*2 = 10/3; next = -10/3*4/3 = -40/9.
	uB.NumSamples = 20
	next = f.Aggregate(1, global, []core.Update{uA, uB})
	if want := -40.0 / 9; math.Abs(next[0]-want) > 1e-12 {
		t.Fatalf("next %v want %v", next[0], want)
	}
}

func TestFedNovaEndToEnd(t *testing.T) {
	algo, err := New("fednova", Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Start(core.RunSpec{Config: testConfig(t, algo)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatal("fednova run incomplete")
	}
}
