package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// How the server holds an in-flight upload must not move a run. Four
// transport shapes — a sparse error-feedback uplink under a robust merge,
// attacks and a priced network (the asynchronous, sparse case); a sparse
// uplink behind the lock-step gate under straggler latency; a dense
// quantized uplink; and the same with noise clients, whose residual
// rows their recipe chains rebuild like every other client's — and the
// dense quantized uplink again over 8 rounds of 2 updates for 16
// clients, outside the lazy regime, so every client that uploaded keeps
// its residual row: q8-ef-dense is the one stream that writes residual
// rows, and its rows dense resume to q8-ef-async's state. Each pins the uninterrupted digest and the digest of the run
// resumed from a mid-run snapshot stream, which streamPins holds
// (asynchronous runs have jobs in flight and buffered at the boundary; a
// lock-step boundary has none).
func TestUploadStreamsPinned(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 16, 25, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, runtime, transport, policy, faults, latency, network, digest string
		rounds                                                             int
	}{
		{"topk-ef-median-byz", "async", "topk:0.01+ef", "median", "byz:0.2,signflip+crash:0.05", "exp:2", "tiered", "7c0da0bdd287eec2", 6},
		{"randk-barrier-straggler", "barrier", "randk:0.05", "", "", "straggler:1,10,3", "", "74db091ccf8b2e61", 6},
		{"q8-ef-async", "async", "q8+ef", "", "", "exp:2", "", "cf6a3a5490d91f14", 6},
		{"q8-ef-noise", "async", "q8+ef", "", "byz:0.3,noise:0.3+crash:0.1", "exp:2", "", "fa79dc0158686c20", 6},
		{"q8-ef-dense", "async", "q8+ef", "", "", "exp:2", "", "88fba621df59a906", 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.RunSpec {
				tr, err := comm.ParseTransport(tc.transport)
				if err != nil {
					t.Fatal(err)
				}
				sp := core.RunSpec{
					Config: core.Config{
						Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
						Train: train, Test: test, Parts: parts,
						Rounds: tc.rounds, ClientsPerRound: 3,
						BatchSize: 20, LocalEpochs: 1,
						LR: 0.01, Momentum: 0.9,
						Algo: core.NewFedTrip(0.4), Seed: 5,
						Transport: tr,
					},
					Runtime:     core.Runtime(tc.runtime),
					Concurrency: 4,
					BufferSize:  2,
					Latency:     mustFleet(core.ParseLatency(tc.latency)),
					Network:     mustFleet(core.ParseNetDist(tc.network)),
				}
				if tc.runtime != "async" {
					sp.Concurrency, sp.BufferSize = 0, 0
				}
				if tc.policy != "" {
					if sp.Policy, err = core.ParsePolicy(tc.policy); err != nil {
						t.Fatal(err)
					}
				}
				if tc.faults != "" {
					if sp.Faults, err = core.ParseFaults(tc.faults); err != nil {
						t.Fatal(err)
					}
				}
				return sp
			}
			full, err := core.Start(build())
			if err != nil {
				t.Fatal(err)
			}
			resumed := core.ResumePinned(t, build, 3)
			if tc.faults != "" && full.RejectedUpdates == 0 {
				t.Error("no crash upload was screened out; the case pins nothing of the attack")
			}
			if got := full.Digest(); got != tc.digest {
				t.Errorf("digest %s, pinned %s", got, tc.digest)
			}
			if got := resumed.Digest(); got != tc.digest {
				t.Errorf("resumed digest %s, pinned %s", got, tc.digest)
			}
		})
	}
}
