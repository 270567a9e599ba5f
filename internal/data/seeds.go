package data

// Named corpus seed streams. A split's samples are drawn block by block
// (see blockSamples): block b re-seeds the synthesis generator with
// prng.StreamSeed(spec.Seed, name, b) under one of these names — the
// registry idiom of internal/core/seeds.go, enforced by the fedtripvet
// seedstream analyzer.
//
// The names are part of the dataset's definition: renaming one changes
// every sample of that split and every trajectory trained on it.
const (
	// streamTrain/b seeds block b of the training split.
	streamTrain = "data/train"
	// streamTest/b seeds block b of the test split.
	streamTest = "data/test"
)
