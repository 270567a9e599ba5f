package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// snapTestConfig builds a small run for snapshot tests: MNIST-like data,
// MLP, 6 clients.
func snapTestConfig(t *testing.T, rounds int) Config {
	t.Helper()
	return snapTestConfigOn(t, rounds, 42)
}

// snapTestConfigOn is snapTestConfig on the corpus drawn from dataSeed.
func snapTestConfigOn(t *testing.T, rounds int, dataSeed int64) Config {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 150, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          rounds,
		ClientsPerRound: 3,
		BatchSize:       20,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            NewFedTrip(0.4),
		Seed:            1,
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSameResult asserts bit-for-bit identical metric trajectories.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if got.DroppedUpdates != want.DroppedUpdates {
		t.Fatalf("%s: dropped updates %d, want %d", label, got.DroppedUpdates, want.DroppedUpdates)
	}
	if got.RejectedUpdates != want.RejectedUpdates {
		t.Fatalf("%s: rejected updates %d, want %d", label, got.RejectedUpdates, want.RejectedUpdates)
	}
	if got.RoundsToTarget != want.RoundsToTarget {
		t.Fatalf("%s: rounds-to-target %d, want %d", label, got.RoundsToTarget, want.RoundsToTarget)
	}
	series := []struct {
		name      string
		want, got []float64
	}{
		{"Accuracy", want.Accuracy, got.Accuracy},
		{"TrainLoss", want.TrainLoss, got.TrainLoss},
		{"GFLOPsByRound", want.GFLOPsByRound, got.GFLOPsByRound},
		{"SimTimeByRound", want.SimTimeByRound, got.SimTimeByRound},
		{"MeanStalenessByRound", want.MeanStalenessByRound, got.MeanStalenessByRound},
	}
	for _, s := range series {
		if !sameFloats(s.want, s.got) {
			t.Fatalf("%s: %s diverged\n want %v\n  got %v", label, s.name, s.want, s.got)
		}
	}
	if !sameInt64s(want.CommBytesByRound, got.CommBytesByRound) {
		t.Fatalf("%s: CommBytesByRound diverged\n want %v\n  got %v", label, want.CommBytesByRound, got.CommBytesByRound)
	}
	if math.Float64bits(want.BestAccuracy) != math.Float64bits(got.BestAccuracy) ||
		math.Float64bits(want.FinalAccuracy) != math.Float64bits(got.FinalAccuracy) {
		t.Fatalf("%s: summary accuracy diverged: best %v/%v final %v/%v",
			label, want.BestAccuracy, got.BestAccuracy, want.FinalAccuracy, got.FinalAccuracy)
	}
}

// parentStreamSHA256 pins the FTRS byte layout from outside the code that
// writes it, for the snapshot stream each resume pin builds. The lengths
// were taken at PR 22, the FTRS 7 bump: each stream is its FTRS 6
// predecessor (whose length had not moved since PR 16, the last commit
// with a separate writer and reader) minus every client's scalar map — a
// count word, and per entry a name and a value — plus one executed-steps
// word per job. The hashes were re-taken at PR 23, which stored the corpus
// as uint8 grid codes and so moved every trained float64 once, in a tree
// where snapshot.go, tensor/io.go and comm/compress.go are byte-identical
// to PR 22's: the layout did not move, only the values in it.
// A stream is trained float64s end to end, so the hashes hold on amd64
// only (other targets fuse multiply-adds); the lengths hold everywhere.
var parentStreamSHA256 = map[string]struct {
	sha256 string
	length int
}{
	"TestResumeEquivalenceSync":                 {"55afd3726a371436fa140914ed43fb024b9cda30e2a5a3149496fb20c16749aa", 4453677},
	"TestResumeEquivalenceAsyncFedBuff":         {"697b84141e2050ed6d699cba5c3cadbb14bd1cdf714de61a2259992a6921ada8", 6362344},
	"TestResumeEquivalenceAsyncChurn":           {"fdb4a49be3b650d014c1180cd8fe26c6c7ae1960d10290ff2b501788ba1c572d", 6362550},
	"TestResumeEquivalenceAsyncDevices":         {"23f68771096f3ea6f1bddcb7221dfb3588843ab934b54d146b8e402363431b0d", 6362313},
	"TestResumeEquivalenceNoiseFault":           {"2488a8bc409fd48aeeec698da7e11b1448b451772554b7d3b2b5c9cacc28e9d5", 6362351},
	"TestResumeEquivalenceAsyncPricedTransport": {"afa72c5dffd48952a7b979353f0b5b993999c609da39d8f9ca101b3715f617d1", 5090302},
}

// requireParentStream checks the calling test's snapshot stream against
// its parentStreamSHA256 entry; tests without one pass.
func requireParentStream(t *testing.T, stream []byte) {
	t.Helper()
	want, ok := parentStreamSHA256[t.Name()]
	if !ok {
		return
	}
	if len(stream) != want.length {
		t.Errorf("snapshot stream is %d bytes, FTRS 7 is %d: the byte layout moved", len(stream), want.length)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != want.sha256 {
		t.Errorf("snapshot stream (%d bytes) has sha256 %s, pinned %s: the byte layout or the trajectory moved", len(stream), got, want.sha256)
	}
}

// runResumeScenario pins the tentpole guarantee both ways: a run that
// snapshots at round k and keeps going matches the uninterrupted run,
// and a fresh process resumed from that snapshot matches it too —
// bit-for-bit across every metric series.
func runResumeScenario(t *testing.T, spec RunSpec, snapAt int) {
	t.Helper()
	full, err := Start(spec)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatalf("NewRunState: %v", err)
	}
	for i := 0; i < snapAt; i++ {
		done, err := rs.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if done {
			t.Fatalf("run completed at step %d, before the snapshot round %d", i+1, snapAt)
		}
	}
	if rs.Round() != snapAt {
		t.Fatalf("after %d steps Round() = %d", snapAt, rs.Round())
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	requireParentStream(t, buf.Bytes())

	// Snapshot-and-continue: the quiesce must not perturb the trajectory.
	cont, err := rs.Run()
	if err != nil {
		t.Fatalf("continue after snapshot: %v", err)
	}
	requireSameResult(t, "snapshot-and-continue", full, cont)

	// Resume in a "fresh process": a brand-new RunState from the same
	// spec, state loaded from the snapshot bytes.
	rs2, err := Resume(bytes.NewReader(buf.Bytes()), ResumeSpec{Spec: spec})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rs2.Round() != snapAt {
		t.Fatalf("resumed Round() = %d, want %d", rs2.Round(), snapAt)
	}
	resumed, err := rs2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireSameResult(t, "snapshot-and-resume", full, resumed)
}

func TestResumeEquivalenceSync(t *testing.T) {
	cfg := snapTestConfig(t, 6)
	runResumeScenario(t, RunSpec{Config: cfg}, 3)
}

func TestResumeEquivalenceAsyncFedBuff(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     ExponentialLatency{Mean: 2},
	}, 4)
}

func TestResumeEquivalenceAsyncChurn(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     ExponentialLatency{Mean: 2},
		Churn: &ChurnModel{
			MeanUp:   30,
			MeanDown: 8,
			Drops:    []MassDrop{{At: 4, Fraction: 0.5, Duration: 6}},
		},
	}, 4)
}

func TestResumeEquivalenceAsyncDevices(t *testing.T) {
	cfg := snapTestConfig(t, 6)
	runResumeScenario(t, RunSpec{
		Config:             cfg,
		Runtime:            RuntimeAsync,
		Concurrency:        4,
		BufferSize:         2,
		Devices:            DefaultTiers(),
		AdaptiveLocalSteps: true,
	}, 3)
}

// TestSnapshotPolicyRoundTrip: for every aggregation policy the CLI can
// spell, a snapshot restored into a fresh run and immediately
// re-snapshotted must reproduce the original stream byte-for-byte —
// pending in-flight updates, scheduler order, RNG positions, and the
// recorder all survive serialization exactly.
func TestSnapshotPolicyRoundTrip(t *testing.T) {
	lr := mustPolicy(t, "fedbuff")
	lr.ServerLR = Rule{F: func(t int) float64 { return 0.5 }}
	policies := []struct {
		name string
		p    Policy
	}{
		{"fedavg", mustPolicy(t, "fedavg")},
		{"fedbuff", mustPolicy(t, "fedbuff")},
		{"fedasync", mustPolicy(t, "fedasync")},
		{"importance", mustPolicy(t, "importance:0")},
		{"fedbuff+maxstale", mustPolicy(t, "fedbuff+maxstale:4")},
		{"fedbuff+lr", lr},
		{"median", mustPolicy(t, "median")},
		{"trimmedmean", mustPolicy(t, "trimmedmean:0.25")},
		{"krum", mustPolicy(t, "krum:0.2")},
		{"fedavg+clip", mustPolicy(t, "fedavg+clip:5")},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapTestConfig(t, 6)
			spec := RunSpec{
				Config:      cfg,
				Runtime:     RuntimeAsync,
				Concurrency: 4,
				BufferSize:  2,
				Latency:     ExponentialLatency{Mean: 1.5},
				Policy:      tc.p,
			}
			rs, err := NewRunState(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for i := 0; i < 3; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatalf("step %d: %v", i+1, err)
				}
			}
			var a bytes.Buffer
			if err := rs.Snapshot(&a); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			rs2, err := Resume(bytes.NewReader(a.Bytes()), ResumeSpec{Spec: spec})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			var b bytes.Buffer
			if err := rs2.Snapshot(&b); err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("restored state re-serializes differently (%d vs %d bytes)", a.Len(), b.Len())
			}
			// The restored run must also still run.
			if _, err := rs2.Run(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
		})
	}
}

// TestResumeRejectsBadSnapshots pins the precise-error contract for
// wrong-magic, wrong-version, truncated, and wrong-run streams. A format
// bump orphans older snapshots: a v5-headered stream is refused with both
// versions named, whatever follows the header.
func TestResumeRejectsBadSnapshots(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	spec := RunSpec{Config: cfg}
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	good := buf.Bytes()

	otherSeed := spec
	otherSeed.Seed = 99

	// The recorder section of a stream taken after one lock-step round is
	// the Rounds word and five one-element series; it is found by its
	// tail, the clock and the staleness, which are zero on a sync run.
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	rec := bytes.Index(good, bytes.Join([][]byte{word(1), word(0), word(1), word(0)}, nil)) - 56
	if rec < 0 || !bytes.Equal(good[rec:rec+16], append(word(1), word(1)...)) {
		t.Fatal("recorder section not found in the snapshot")
	}
	// dropSeries empties the series whose length word sits at off.
	dropSeries := func(off int) []byte {
		return append(append(append([]byte(nil), good[:off]...), word(0)...), good[off+16:]...)
	}

	cases := []struct {
		name    string
		data    []byte
		spec    RunSpec
		wantErr string
	}{
		{"wrong magic", append([]byte("NOPE"), good[4:]...), spec, "not a run snapshot"},
		{"wrong version", append(append([]byte(snapMagic), 99), good[5:]...), spec, "version 99"},
		{"previous version", append(append([]byte(snapMagic), 6), good[5:]...), spec, "run snapshot version 6, this build reads version 7"},
		{"empty", nil, spec, "truncated"},
		{"truncated header", good[:3], spec, "truncated"},
		{"truncated body", good[:len(good)/2], spec, "truncated"},
		{"different run", good, otherSeed, "different run"},
		// Each of the five per-round series must be as long as Rounds; the
		// last two went unchecked and a short one panicked the next Step.
		{"short train-loss series", dropSeries(rec + 8), spec, "train-loss series"},
		{"short sim-time series", dropSeries(rec + 56), spec, "sim-time series"},
		{"short staleness series", dropSeries(rec + 72), spec, "staleness series"},
		{"more rounds than the spec", append(append(append([]byte(nil), good[:rec]...), word(5)...), good[rec+8:]...), spec, "recorded rounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Resume(bytes.NewReader(tc.data), ResumeSpec{Spec: tc.spec})
			if err == nil {
				t.Fatal("bad snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotRefusesServerSideAggregators: a method with server-side
// aggregation state (async_test.go's aggAlgo) cannot be serialized by
// the runtime; Snapshot must refuse it rather than resume a
// half-restored method.
func TestSnapshotRefusesServerSideAggregators(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	cfg.Algo = aggAlgo{}
	rs, err := NewRunState(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = rs.Snapshot(&buf)
	if err == nil {
		t.Fatal("snapshot of an Aggregator method accepted")
	}
	if !strings.Contains(err.Error(), "cannot snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
}
