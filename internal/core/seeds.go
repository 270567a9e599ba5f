package core

import "repro/internal/prng"

// Named seed streams. One run seed (Config.Seed) fans out into many
// independent PRNG streams — selection, latency, per-client shuffling,
// per-shard engine construction, device sampling, churn — and before this
// registry existed each stream's seed was an ad-hoc magic offset scattered
// across the runtime (seed+99991 for latency, seed+1000+k for clients,
// seed+500000+w for engines, seed+700000/+800000 for devices/churn).
// Offsets compose badly: they collide silently as streams are added, and
// nothing names what a stream is for. Every stream now derives its seed by
// mixing the run seed with a name hash (and an index for per-entity
// streams) through the splitmix64 finalizer, so streams are independent by
// construction, collisions are cryptographically unlikely (pinned by
// TestSeedStreamsCollisionFree), and the set of streams a run consumes is
// this one const block.
//
// Changing a stream's name changes its seed and therefore every
// trajectory downstream of it — treat the names as part of the
// deterministic-run contract, like the snapshot format version.
const (
	// streamSelection drives client selection (the sync server's
	// permutation draw and the async dispatcher's idle pick).
	streamSelection = "selection"
	// streamLatency draws dispatch durations in the async runtimes.
	streamLatency = "latency"
	// streamClient/k is client k's private stream: mini-batch shuffling,
	// method-specific sampling and, after training, a noise fault's
	// draws. Keyed to the client, not the worker that trains it, which is
	// why trajectories do not depend on the shard count.
	streamClient = "client"
	// streamEngine/w builds shard worker w's engine (initial model
	// parameters — always overwritten before use).
	streamEngine = "engine"
	// streamLoaner builds the server's shared loaner engine.
	streamLoaner = "loaner"
	// streamScratch/0 derives an engine's scratch-model seed stream from
	// the engine's own seed (second-level derivation).
	streamScratch = "scratch"
	// streamModel initialises the global model (and the eval-model
	// instances, which never contribute — their parameters are overwritten
	// before every use).
	streamModel = "model"
	// streamDevice samples per-client compute-speed multipliers.
	streamDevice = "device"
	// streamChurn drives the fleet availability process.
	streamChurn = "churn"
	// streamNet samples per-client network profiles (bandwidth, RTT).
	streamNet = "net"
	// streamAdversary samples per-client fault assignments (adversary.go),
	// in client-ID order. Dedicated stream: enabling fault injection draws
	// nothing from any other stream, so a zero-fraction fault model leaves
	// the trajectory bit-for-bit identical to a run with no faults at all.
	streamAdversary = "adversary"
)

// streamSeed derives the seed of stream (name, k) under the given run
// seed via prng.StreamSeed — the shared splitmix64 derivation rule (two
// mixing rounds separate the (name, k) space from the run-seed space, so
// structured inputs still land uniformly in 64 bits). The name parameter
// is forwarded verbatim, so these trampolines are the one place in this
// package allowed to pass a non-constant stream name.
func streamSeed(runSeed int64, name string, k int) int64 {
	return prng.StreamSeed(runSeed, name, k) //fedtripvet:allow registry trampoline: name is the caller's registered constant
}

// seedStream returns a fresh PRNG positioned at the start of the named
// (unindexed) stream.
func seedStream(runSeed int64, name string) *prng.Rand {
	return prng.New(streamSeed(runSeed, name, 0)) //fedtripvet:allow registry trampoline: name is the caller's registered constant
}

// seedStreamN returns a fresh PRNG for the k-th instance of an indexed
// stream (per-client, per-shard).
func seedStreamN(runSeed int64, name string, k int) *prng.Rand {
	return prng.New(streamSeed(runSeed, name, k)) //fedtripvet:allow registry trampoline: name is the caller's registered constant
}
