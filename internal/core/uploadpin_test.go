package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// How the server holds an in-flight upload must not move a run. Three
// transport shapes — a sparse error-feedback uplink under a robust merge,
// attacks and a priced network (the asynchronous, sparse case); a sparse
// uplink behind the lock-step gate under straggler latency; and a dense
// quantized uplink — each pin the uninterrupted digest, the length and
// SHA-256 of a mid-run snapshot stream (asynchronous runs have jobs in
// flight and buffered at the boundary; a lock-step boundary has none),
// and the digest of the run resumed from that stream. A stream is trained
// float64s, so the hashes hold on amd64 only; lengths and digests
// everywhere.
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
		name, runtime, transport, policy, faults, latency, network string
		digest, sha256                                             string
		length                                                     int
	}{
		{"topk-ef-median-byz", "async", "topk:0.01+ef", "median", "byz:0.2,signflip+crash:0.05", "exp:2", "tiered",
			"7c0da0bdd287eec2", "3718f3dc490af0adb1fc9bd6183018d970e35e51c9a138e4c5910760c2202a89", 1116123},
		{"randk-barrier-straggler", "barrier", "randk:0.05", "", "", "straggler:1,10,3", "",
			"74db091ccf8b2e61", "bdb6183d519c7261ccfb5924fe9f09a3ad0407323ec2c2a20b6a427d0421ac93", 1115168},
		{"q8-ef-async", "async", "q8+ef", "", "", "exp:2", "",
			"cf6a3a5490d91f14", "7b97d4ffac3d230725c34948a0b864b65761819ee71fffbda09951594c80f8fa", 1116030},
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
						Rounds: 6, ClientsPerRound: 3,
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
			rs, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := rs.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			rs.Close()
			sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			rs2, err := core.Resume(bytes.NewReader(buf.Bytes()), core.ResumeSpec{Spec: build()})
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := rs2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults != "" && full.RejectedUpdates == 0 {
				t.Error("no crash upload was screened out; the case pins nothing of the attack")
			}
			if got := full.Digest(); got != tc.digest {
				t.Errorf("digest %s, pinned %s", got, tc.digest)
			}
			if got := resumed.Digest(); got != tc.digest {
				t.Errorf("resumed digest %s, pinned %s", got, tc.digest)
			}
			if buf.Len() != tc.length {
				t.Errorf("stream is %d bytes, pinned %d", buf.Len(), tc.length)
			}
			if runtime.GOARCH == "amd64" && sum != tc.sha256 {
				t.Errorf("stream sha256 %s, pinned %s", sum, tc.sha256)
			}
		})
	}
}
