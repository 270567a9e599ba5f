package experiments

// Named harness seed streams. A table cell's corpus, partition and run
// all derive from its one -seed (runtext.Task.Config), as on the fedtrip
// command line; every stochastic draw the experiment harnesses make
// outside a run — the theory-xi participation simulation — derives from
// Profile.Seed through prng.StreamSeed under one of these names, exactly
// like the runtime's registry in internal/core/seeds.go.
//
// The names are part of the deterministic-run contract: renaming one
// changes every table downstream of it. The fedtripvet seedstream
// analyzer rejects stream names that are not registered here.
const (
	// streamXi drives the theory-xi participation simulation (the
	// geometric-gap sampling behind Theorem 1's E[xi] coefficient).
	streamXi = "harness/xi"
)
