package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
	requireStreamPinned(t, buf.Bytes(), spec)

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
		Latency:     mustFleet(ParseLatency("exp:2")),
	}, 4)
}

func TestResumeEquivalenceAsyncChurn(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("exp:2")),
		Churn: &ChurnModel{
			MeanUp:   30,
			MeanDown: 8,
			Drops:    []MassDrop{{At: 4, Fraction: 0.5, Duration: 6}},
		},
	}, 4)
}

// NewMOON builds the registry's MOON for this package's tests, which
// cannot import algos (algos imports core); moon_test.go sets it.
var NewMOON func() Algorithm

// TestResumeEquivalenceMOON resumes a method whose client row is read in
// BeginRound rather than in TransformGrad: MOON's previous-local model.
func TestResumeEquivalenceMOON(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	cfg.Algo = NewMOON()
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("exp:2")),
	}, 4)
}

func TestResumeEquivalenceAsyncDevices(t *testing.T) {
	cfg := snapTestConfig(t, 6)
	runResumeScenario(t, RunSpec{
		Config:             cfg,
		Runtime:            RuntimeAsync,
		Concurrency:        4,
		BufferSize:         2,
		Devices:            mustFleet(ParseDeviceDist("tiered")),
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
				Latency:     mustFleet(ParseLatency("exp:1.5")),
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
// bump orphans older snapshots: a v10-headered stream is refused with both
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
	np := len(rs.Server().Global())
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
	// partialRow gives client 0's state one float more than it has: the
	// vector follows the header, the fingerprint, the global model, the
	// selection stream, the (empty) round-image section, the client count
	// and the client's no-recipe byte.
	fingerprint := int(binary.LittleEndian.Uint64(good[len(snapMagic)+1:]))
	images := len(snapMagic) + 1 + 8 + fingerprint + 8 + 8*np + 17
	if n := binary.LittleEndian.Uint64(good[images:]); n != 0 {
		t.Fatalf("the stream holds %d round images, want none", n)
	}
	at := images + 8 + 8 + 1
	floats := int(binary.LittleEndian.Uint64(good[at:]))
	end := at + 8 + 8*floats
	partialRow := bytes.Join([][]byte{good[:at], word(uint64(floats + 1)), good[at+8 : end], word(0), good[end:]}, nil)

	cases := []struct {
		name    string
		data    []byte
		spec    RunSpec
		wantErr string
	}{
		{"wrong magic", append([]byte("NOPE"), good[4:]...), spec, "not a run snapshot"},
		{"wrong version", append(append([]byte(snapMagic), 99), good[5:]...), spec, "version 99"},
		{"previous version", append(append([]byte(snapMagic), 14), good[5:]...), spec, "run snapshot version 14, this build reads version 15"},
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
		{"client state not whole rows", partialRow, spec, "not a whole number of"},
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

// TestResumeRejectsInconsistentAccuracyList: the recorder's accuracy list
// must hold strictly increasing rounds within [1, R]. A stream that breaks
// that is corrupt. The stop=true cases run with a target that the first
// evaluation crosses, as the early-stopping runs these cases once covered
// did: the unedited stream must resume to that crossing, and each edit is
// refused all the same.
func TestResumeRejectsInconsistentAccuracyList(t *testing.T) {
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for _, stop := range []bool{false, true} {
		cfg := snapTestConfig(t, 4)
		wantRTT := -1
		if stop {
			cfg.TargetAccuracy, wantRTT = 1e-9, 1
		}
		spec := RunSpec{Config: cfg}
		rs, err := NewRunState(spec)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if _, err := rs.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := rs.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		last := rs.LastAccuracy()
		rs.Close()
		good := buf.Bytes()
		resumed, err := Resume(bytes.NewReader(good), ResumeSpec{Spec: spec})
		if err != nil {
			t.Fatalf("stop=%t: the unedited stream is refused: %v", stop, err)
		}
		if got := resumed.Finish().RoundsToTarget; got != wantRTT {
			t.Fatalf("stop=%t: the resumed run reports rounds-to-target %d, want %d", stop, got, wantRTT)
		}
		resumed.Close()

		// The last accuracy, then three (round, accuracy) pairs.
		at := bytes.Index(good, bytes.Join([][]byte{word(math.Float64bits(last)), word(3), word(1)}, nil))
		if at < 0 {
			t.Fatalf("stop=%t: accuracy list not found in the snapshot", stop)
		}
		pair := func(i int) int { return at + 16 + 16*i }
		edit := func(off int, v uint64) []byte {
			b := bytes.Clone(good)
			copy(b[off:], word(v))
			return b
		}
		cases := []struct {
			name    string
			data    []byte
			wantErr string
		}{
			{"round out of order", edit(pair(1), 1), "accuracy for round 1 after round 1"},
			{"rounds decreasing", edit(pair(0), 3), "accuracy for round 2 after round 3"},
			{"round zero", edit(pair(0), 0), "accuracy for round 0 after round 0"},
			{"round past R", edit(pair(2), 4), "accuracy for round 4 after round 2 of 3"},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("stop=%t/%s", stop, tc.name), func(t *testing.T) {
				_, err := Resume(bytes.NewReader(tc.data), ResumeSpec{Spec: spec})
				if err == nil {
					t.Fatal("inconsistent accuracy list accepted")
				}
				if !strings.Contains(err.Error(), "corrupt run snapshot") || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
			})
		}
	}
}
