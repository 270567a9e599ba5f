package runtext_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
)

// knob is a resolved fleet knob's text, "none" when it is unset.
func knob(v fmt.Stringer) string {
	if v == nil {
		return "none"
	}
	return v.String()
}

// TestFleetDigestsPinned pins every form of the three fleet grammars —
// dispatch latency, device speed, link profile — to the draws it makes:
// one small MLP run each, the resolved text of all three knobs and the
// result digest compared with literals taken on the tree where each knob
// was an interface with one type per form. SimTimeByRound is in the
// digest, so one moved or reordered draw breaks a row. The digests are
// amd64 values (like core's stream state digests); the texts hold anywhere.
func TestFleetDigestsPinned(t *testing.T) {
	async := func(sel runtext.Selection) runtext.Selection {
		sel.Runtime, sel.Concurrency, sel.Buffer = core.RuntimeAsync, 8, 2
		return sel
	}
	barrier := func(sel runtext.Selection) runtext.Selection {
		sel.Runtime = core.RuntimeBarrier
		return sel
	}
	cases := []struct {
		name                      string
		sel                       runtext.Selection
		latency, devices, network string
		digest                    string
	}{
		{"latency zero sync", runtext.Selection{Latency: "zero"}, "zero", "none", "none", "a6844e41d32a9a1d"},
		{"latency zero barrier", barrier(runtext.Selection{Latency: "zero"}), "zero", "none", "none", "a6844e41d32a9a1d"},
		{"latency const:2", async(runtext.Selection{Latency: "const:2"}), "const:2", "none", "none", "c5974a6835d880c2"},
		{"latency uniform:0.5,2", async(runtext.Selection{Latency: "uniform:0.5,2"}), "uniform:0.5,2", "none", "none", "8c415557ca21a51a"},
		{"latency exp:1.5", async(runtext.Selection{Latency: "exp:1.5"}), "exp:1.5", "none", "none", "2bf683abb8366487"},
		{"latency lognormal:0,0.5", async(runtext.Selection{Latency: "lognormal:0,0.5"}), "lognormal:0,0.5", "none", "none", "f09e04bc03107062"},
		{"latency straggler:1,4,3", async(runtext.Selection{Latency: "straggler:1,4,3"}), "straggler:1,4,3", "none", "none", "72972d3400cf227c"},

		{"device uniform:0.5,2", async(runtext.Selection{Devices: "uniform:0.5,2"}), "zero", "uniform:0.5,2", "none", "b2ad79ed5dcf5197"},
		{"device uniform:0.5,2 adaptive", async(runtext.Selection{Devices: "uniform:0.5,2", AdaptiveSteps: true}), "zero", "uniform:0.5,2", "none", "edcab2b411aef7a3"},
		{"device lognormal:0,0.6", async(runtext.Selection{Devices: "lognormal:0,0.6"}), "zero", "lognormal:0,0.6", "none", "da8ff5489214e68d"},
		{"device lognormal:0,0.6 adaptive", async(runtext.Selection{Devices: "lognormal:0,0.6", AdaptiveSteps: true}), "zero", "lognormal:0,0.6", "none", "2faa74156f7fffaa"},
		{"device tiered", async(runtext.Selection{Devices: "tiered"}), "zero", "tiered:0.25,0.3,1,0.6,4,0.1", "none", "b10d272a6d077b9d"},
		{"device tiered adaptive", async(runtext.Selection{Devices: "tiered", AdaptiveSteps: true}), "zero", "tiered:0.25,0.3,1,0.6,4,0.1", "none", "098b92af99f9819e"},
		{"device tiered:0.5,0.5,2,0.5", async(runtext.Selection{Devices: "tiered:0.5,0.5,2,0.5"}), "zero", "tiered:0.5,0.5,2,0.5", "none", "3485d064f9cdfc05"},
		{"device tiered:0.5,0.5,2,0.5 adaptive", async(runtext.Selection{Devices: "tiered:0.5,0.5,2,0.5", AdaptiveSteps: true}), "zero", "tiered:0.5,0.5,2,0.5", "none", "c486f23793a3a738"},

		{"net const:10,25,30 async", async(runtext.Selection{Bandwidth: "const:10,25,30"}), "zero", "none", "const:10,25,30", "0b0e199c42c6485a"},
		{"net const:10,25,30 barrier", barrier(runtext.Selection{Bandwidth: "const:10,25,30"}), "zero", "none", "const:10,25,30", "96fb9843875968e0"},
		{"net const:inf,inf,0 async", async(runtext.Selection{Bandwidth: "const:inf,inf,0"}), "zero", "none", "const:Inf,Inf,0", "4dc484df96c020c2"},
		// An unpriced link on the lock-step loop is the zero-latency run:
		// the first two rows' digest.
		{"net const:inf,inf,0 barrier", barrier(runtext.Selection{Bandwidth: "const:inf,inf,0"}), "zero", "none", "const:Inf,Inf,0", "a6844e41d32a9a1d"},
		{"net uniform:5,50,20 async", async(runtext.Selection{Bandwidth: "uniform:5,50,20"}), "zero", "none", "uniform:5,50,20", "546501c738a5ba97"},
		{"net uniform:5,50,20 barrier", barrier(runtext.Selection{Bandwidth: "uniform:5,50,20"}), "zero", "none", "uniform:5,50,20", "27369ea4a1328f5c"},
		{"net lognormal:3,0.5 async", async(runtext.Selection{Bandwidth: "lognormal:3,0.5"}), "zero", "none", "lognormal:3,0.5,0", "192ac6e1f68a6be0"},
		{"net lognormal:3,0.5 barrier", barrier(runtext.Selection{Bandwidth: "lognormal:3,0.5"}), "zero", "none", "lognormal:3,0.5,0", "5474a24dfe94f215"},
		{"net tiered async", async(runtext.Selection{Bandwidth: "tiered"}), "zero", "none", "tiered:5,20,80,0.3,20,50,40,0.6,1000,1000,5,0.1", "819a43dd3ac773a5"},
		{"net tiered barrier", barrier(runtext.Selection{Bandwidth: "tiered"}), "zero", "none", "tiered:5,20,80,0.3,20,50,40,0.6,1000,1000,5,0.1", "240220bbe9b235eb"},
		{"net tiered:10,40,20,1 async", async(runtext.Selection{Bandwidth: "tiered:10,40,20,1"}), "zero", "none", "tiered:10,40,20,1", "55d051995a0bd66a"},
		{"net tiered:10,40,20,1 barrier", barrier(runtext.Selection{Bandwidth: "tiered:10,40,20,1"}), "zero", "none", "tiered:10,40,20,1", "85f5bf767a9935a7"},
	}

	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 240, Test: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 12, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algo, err := algos.Parse("fedtrip")
			if err != nil {
				t.Fatal(err)
			}
			// Batches of 5 give every client several local steps, so each
			// adaptive row trains fewer of them than its plain twin.
			rs, err := tc.sel.RunSpec(core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 4, ClientsPerRound: 4, BatchSize: 5, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := [3]string{knob(rs.Latency), knob(rs.Devices), knob(rs.Network)}
			if want := [3]string{tc.latency, tc.devices, tc.network}; got != want {
				t.Errorf("resolved latency/devices/network print %q, want %q", got, want)
			}
			res, err := core.Start(rs)
			if err != nil {
				t.Fatal(err)
			}
			end := res.SimTimeByRound[len(res.SimTimeByRound)-1]
			if priced := tc.latency != "zero" || tc.devices != "none" || tc.network != "none" && tc.network != "const:Inf,Inf,0"; priced != (end > 0) || math.IsInf(end, 0) {
				t.Errorf("simulated time at the end %g: priced=%t", end, priced)
			}
			if runtime.GOARCH != "amd64" {
				t.Skipf("digest %s not compared: the literals are amd64 values", res.Digest())
			}
			if got := res.Digest(); got != tc.digest {
				t.Errorf("digest %s, want %s: the fleet's draws moved", got, tc.digest)
			}
		})
	}
}
