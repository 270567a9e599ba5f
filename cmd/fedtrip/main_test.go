package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A checkpoint write that fails must not cost the user the last good
// checkpoint: SlowMo keeps server-side state Snapshot refuses, so
// -snapshot-at on a SlowMo run errors out mid-write — and the file that
// was at -checkpoint before stays byte-for-byte intact, with no temp file
// left beside it. The same flags on a snapshottable method replace it.
func TestWriteSnapshotKeepsLastGoodCheckpoint(t *testing.T) {
	opts := func(algo, ckpt string) runOpts {
		return runOpts{
			algoName: algo, dataset: "mnist", model: "mlp", schemeStr: "dir", alpha: 0.5,
			clients: 6, perRound: 3, samples: 40, testN: 100,
			rounds: 2, batch: 20, epochs: 1, lr: 0.01, momentum: 0.9, scale: 0.5,
			seed: 1, quiet: true, staleExp: 0.5,
			checkCk: ckpt, snapAt: 1,
		}
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	lastGood := []byte("the last good checkpoint")
	if err := os.WriteFile(ckpt, lastGood, 0o644); err != nil {
		t.Fatal(err)
	}
	onlyCheckpoint := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
			t.Fatalf("checkpoint directory holds %v, want only run.ckpt", entries)
		}
	}

	err := run(opts("slowmo", ckpt))
	if err == nil || !strings.Contains(err.Error(), "cannot snapshot") {
		t.Fatalf("slowmo -snapshot-at: err %v, want a Snapshot refusal", err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, lastGood) {
		t.Fatalf("failed write clobbered the previous checkpoint: %q", got)
	}
	onlyCheckpoint()

	if err := run(opts("fedtrip", ckpt)); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("FTRS")) {
		t.Fatalf("successful write did not replace the checkpoint (starts %q)", got[:4])
	}
	onlyCheckpoint()
}
