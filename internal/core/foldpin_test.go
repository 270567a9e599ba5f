package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/runtext"
)

// lockStepRows are lock-step runs in every shape a round's merge takes:
// sync, and barrier under a straggler latency or a device fleet, so that
// arrivals leave dispatch order; no transport and the float32,
// lossless, quantized and sparse uplinks; four methods; one shard and
// two; a clip guard, a fedasync policy and a churning fleet; K from 1 to
// past the number of shards; and rows outside the lazy regime and in
// it. digest is the run's Result digest, an amd64 value.
var lockStepRows = []struct {
	name, line, digest string
}{
	{"sync none k4 shards1", "-k 4 -shards 1", "24a93d623803fda1"},
	{"sync none k4", "-k 4 -shards 2", "24a93d623803fda1"},
	{"sync none k1 fedavg", "-k 1 -shards 2 -algo fedavg", "d4a34e62b60f5039"},
	{"sync none k2 fedprox", "-k 2 -shards 2 -algo fedprox:0.3", "a496875ab0dc1e8b"},
	{"sync none k3 moon", "-k 3 -shards 2 -algo moon", "f863129aadf0904f"},
	{"sync none k7", "-k 7 -shards 2", "691b1c3d40c10395"},
	{"sync none lazy", "-clients 40 -k 4 -shards 2", "df235ffd09b7efa6"},
	{"sync f32 k4", "-k 4 -shards 2 -transport f32", "1fd730147535b939"},
	{"sync f32 k5 shards1 fedavg", "-k 5 -shards 1 -transport f32 -algo fedavg", "91ab5996f2de3a54"},
	{"sync f32 lazy", "-clients 40 -k 4 -shards 2 -transport f32", "f2843a32bb4feae1"},
	{"sync lossless k4", "-k 4 -shards 2 -transport lossless", "a9fb088c3ca2845f"},
	{"sync q8+ef k4 fedprox", "-k 4 -shards 2 -transport q8+ef -algo fedprox:0.3", "57ddc069b4675f81"},
	{"sync topk k6", "-k 6 -shards 2 -transport topk:0.01+ef", "f0ed010807d2de94"},
	{"sync topk k4 shards1 moon", "-k 4 -shards 1 -transport topk:0.01+ef -algo moon", "42965e3d2666e61c"},
	{"sync clip none", "-k 4 -shards 2 -policy fedavg+clip:0.05", "0b8967ee6f965e95"},
	{"sync clip f32", "-k 4 -shards 2 -policy fedavg+clip:0.05 -transport f32", "8075692c676c3c2c"},
	{"sync clip topk", "-k 4 -shards 2 -policy fedavg+clip:0.05 -transport topk:0.01+ef", "988020729d78288a"},
	{"barrier straggler none k6", "-runtime barrier -latency straggler:1,10,3 -k 6 -shards 2", "109e57b7e064a119"},
	{"barrier straggler f32 k6 shards1", "-runtime barrier -latency straggler:1,10,3 -k 6 -shards 1 -transport f32", "c3ee212f9491d514"},
	{"barrier straggler q8+ef moon", "-runtime barrier -latency straggler:1,10,3 -k 5 -shards 2 -transport q8+ef -algo moon", "a52720dfbc01a45f"},
	{"barrier devices none k5", "-runtime barrier -device-dist tiered -k 5 -shards 2", "48fce81297b4ab26"},
	{"barrier devices topk k5 fedavg", "-runtime barrier -device-dist lognormal:0,0.6 -k 5 -shards 2 -transport topk:0.01+ef -algo fedavg", "46bad64a1f7b994f"},
	{"barrier fedasync", "-runtime barrier -latency exp:2 -policy fedasync -k 4 -shards 2", "5babab9a0b869de4"},
	{"barrier churn f32", "-runtime barrier -latency exp:2 -dropout markov:20,5 -k 4 -shards 2 -transport f32", "90b0072e604e6baa"},
}

// lockStepLine is what every lockStepRows line runs on top of: a small
// MLP, three rounds.
const lockStepLine = "-model mlp -scale 0.25 -clients 12 -samples 30 -test 60 -batch 10 -rounds 3 -seed 3 "

// TestLockStepFoldMatchesHold holds every lock-step row to its digest
// twice: as the run takes its merge, and with a no-op OnUpdates hook,
// which needs every upload of a round at once. The two must agree with
// each other and with the literal. A mid-run snapshot of two rows,
// resumed in a fresh run, finishes on the same digest.
func TestLockStepFoldMatchesHold(t *testing.T) {
	build := func(t *testing.T, line string, hook bool) core.RunSpec {
		t.Helper()
		sp, err := runtext.FromLine(lockStepLine + line)
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			sp.OnUpdates = func(int, []float64, []core.Update) {}
		}
		return sp
	}
	for _, tc := range lockStepRows {
		t.Run(tc.name, func(t *testing.T) {
			for _, hook := range []bool{false, true} {
				res, err := core.Start(build(t, tc.line, hook))
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Digest(); got != tc.digest {
					t.Errorf("hook %v: digest %s, pinned %s", hook, got, tc.digest)
				}
			}
		})
	}
	for _, tc := range []struct{ name, line, digest string }{
		{"sync f32 resumed", "-k 4 -shards 2 -transport f32 -rounds 4", "01a326645c726847"},
		{"barrier straggler topk resumed", "-runtime barrier -latency straggler:1,10,3 -k 6 -shards 2 -transport topk:0.01+ef -rounds 4", "f847a2ccc7b5c678"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, hook := range []bool{false, true} {
				rs, err := core.NewRunState(build(t, tc.line, hook))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if _, err := rs.Step(); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := rs.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				rs.Close()
				resumed, err := core.Resume(&buf, core.ResumeSpec{Spec: build(t, tc.line, hook)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := resumed.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Digest(); got != tc.digest {
					t.Errorf("hook %v: resumed digest %s, pinned %s", hook, got, tc.digest)
				}
			}
		})
	}
}
