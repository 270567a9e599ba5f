package experiments

import (
	"fmt"

	"repro/internal/runtext"
)

// Profile scales the experiment suite. Fast preserves the method ordering
// on a laptop budget; Paper reproduces §V.A's settings; Tiny exists for
// unit tests.
//
// Every experiment is runtime-agnostic: the embedded runtext.Selection
// picks the runtime, aggregation policy, fleet models and transport the
// cases run on (cmd/fedtrip-tables registers it as flags), and individual
// experiments may override any of it per Case (the time-to-accuracy table
// does, to compare policies side by side).
type Profile struct {
	Name string
	// SamplesPerClient overrides Table II's per-client data size
	// (0 keeps the paper value).
	SamplesPerClient int
	// CIFARSamples further overrides SamplesPerClient for the CIFAR-like
	// dataset, whose AlexNet runs dominate compute (0 = SamplesPerClient).
	CIFARSamples int
	// EMNISTSamples further overrides SamplesPerClient for the 47-class
	// EMNIST-like dataset, which needs more data per client to be
	// learnable at fast-profile sizes (0 = SamplesPerClient).
	EMNISTSamples int
	// TestSamples sizes the held-out evaluation set.
	TestSamples int
	// Rounds is the communication-round budget T (paper: 100).
	Rounds int
	// Repeats is the number of independent trials per configuration
	// (paper: 10).
	Repeats int
	// Clients and PerRound are N and K (paper default: 10 and 4;
	// Table VI uses 50 and 4).
	Clients, PerRound int
	// Batch and LocalEpochs follow §V.A (50 and 1).
	Batch, LocalEpochs int
	// LR and Momentum configure SGDm (0.01, 0.9).
	LR, Momentum float64
	// ConvScale and AlexScale shrink CNN / AlexNet widths in the fast
	// profile (1 = paper size).
	ConvScale, AlexScale float64
	// MuSweep lists the FedTrip mu values Fig. 7 sweeps.
	MuSweep []float64
	// Fig5EveryRounds samples the convergence curves every k rounds when
	// rendering Fig. 5 tables.
	Fig5EveryRounds int
	// Seed anchors all randomness.
	Seed int64
	// Selection is the runtime selection every case starts from. Methods
	// with server-side hooks (Aggregator/PreRounder) fall back from async
	// to barrier, which joins every client before aggregating.
	runtext.Selection
}

// Fast is the default profile: small synthetic datasets and scaled-down
// conv nets so the full suite runs in minutes on a laptop while keeping
// the paper's method ordering.
func Fast() Profile {
	return Profile{
		Name:             "fast",
		SamplesPerClient: 80,
		CIFARSamples:     40,
		EMNISTSamples:    200,
		TestSamples:      250,
		Rounds:           30,
		Repeats:          1,
		Clients:          10,
		PerRound:         4,
		Batch:            10,
		LocalEpochs:      1,
		LR:               0.01,
		Momentum:         0.9,
		ConvScale:        0.5,
		AlexScale:        0.10,
		MuSweep:          []float64{0.1, 0.4, 0.8, 1.5, 2.5},
		Fig5EveryRounds:  5,
		Seed:             2023,
	}
}

// Paper reproduces §V.A: Table II dataset sizes, 100 rounds, batch 50,
// full-width models, 10 clients with 4 selected. Expect hours of CPU time.
func Paper() Profile {
	return Profile{
		Name:             "paper",
		SamplesPerClient: 0, // Table II values
		TestSamples:      2000,
		Rounds:           100,
		Repeats:          3, // paper uses 10; 3 keeps CPU cost sane
		Clients:          10,
		PerRound:         4,
		Batch:            50,
		LocalEpochs:      1,
		LR:               0.01,
		Momentum:         0.9,
		ConvScale:        1,
		AlexScale:        1,
		MuSweep:          []float64{0.1, 0.4, 0.8, 1.2, 1.5, 2.0, 2.5},
		Fig5EveryRounds:  10,
		Seed:             2023,
	}
}

// Tiny is for unit tests: MLP-sized work only.
func Tiny() Profile {
	return Profile{
		Name:             "tiny",
		SamplesPerClient: 30,
		TestSamples:      80,
		Rounds:           6,
		Repeats:          1,
		Clients:          10,
		PerRound:         3,
		Batch:            15,
		LocalEpochs:      1,
		LR:               0.01,
		Momentum:         0.9,
		ConvScale:        0.34,
		AlexScale:        0.05,
		MuSweep:          []float64{0.1, 1.0},
		Fig5EveryRounds:  2,
		Seed:             7,
	}
}

// ByName resolves a profile string ("fast", "paper", "tiny").
func ByName(name string) (Profile, error) {
	switch name {
	case "", "fast":
		return Fast(), nil
	case "paper":
		return Paper(), nil
	case "tiny":
		return Tiny(), nil
	}
	return Profile{}, fmt.Errorf("experiments: unknown profile %q (want fast, paper, or tiny)", name)
}
