package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtext"
)

func parse(t *testing.T, line string) runOpts {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("fedtrip", flag.ContinueOnError), strings.Fields(line))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// The examples assemble their runs with runtext.FromLine, this program
// with the same runtext.Command behind its own flag set, progress printer
// and hooks: one line of run flags must be the same trajectory either way.
func TestFromLineRunsWhatTheCommandRuns(t *testing.T) {
	const fleet = "-clients 8 -k 4 -samples 60 -test 200 -rounds 8 -model mlp -batch 20 "
	for _, line := range []string{
		"-rounds 3 -model mlp -samples 40 -test 100 -algo fedprox -scheme orthogonal -clusters 2 -seed 5",
		fleet + "-runtime async -latency exp:2 -buffer 2 -concurrency 4 -dropout markov:40,10+drop:4,0.5,6 -policy fedbuff:1",
		fleet + "-runtime async -buffer 2 -concurrency 4 -transport topk:0.01+ef -bandwidth-dist tiered -device-dist tiered -flop-rate 0.5",
	} {
		spec, err := runtext.FromLine(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		lib, err := core.Start(spec)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		cmd, err := run(parse(t, line+" -quiet"))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if lib.Digest() != cmd.Digest() {
			t.Errorf("%s:\nruntext.FromLine digest %s, fedtrip digest %s", line, lib.Digest(), cmd.Digest())
		}
	}
}

// Profiling looks at a run and must not change it: the same line with
// -cpuprofile and -memprofile has the same digest and leaves both files.
func TestProfilesAreDigestNeutral(t *testing.T) {
	const line = "-clients 8 -k 4 -samples 60 -test 200 -rounds 6 -model mlp -batch 20 -runtime async -buffer 2 -concurrency 4 -quiet"
	plain, err := run(parse(t, line))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiled, err := run(parse(t, line+" -cpuprofile "+cpu+" -memprofile "+mem))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest() != profiled.Digest() {
		t.Errorf("digest %s without profiles, %s with", plain.Digest(), profiled.Digest())
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: err %v, want a non-empty profile", path, err)
		}
	}
}

// A checkpoint write that fails must not cost the user the last good
// checkpoint: SlowMo keeps server-side state Snapshot refuses, so
// -snapshot-at on a SlowMo run errors out mid-write — and the file that
// was at -checkpoint before stays byte-for-byte intact, with no temp file
// left beside it. The same flags on a snapshottable method replace it.
func TestWriteSnapshotKeepsLastGoodCheckpoint(t *testing.T) {
	opts := func(algo, ckpt string) runOpts {
		return parse(t, "-algo "+algo+" -model mlp -clients 6 -k 3 -samples 40 -test 100 -rounds 2 -batch 20 -quiet -snapshot-at 1 -checkpoint "+ckpt)
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

	_, err := run(opts("slowmo", ckpt))
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

	if _, err := run(opts("fedtrip", ckpt)); err != nil {
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

// -snapshot-at N writes its snapshot after the Step that completes round
// N, so an N the run never completes is refused before the first Step,
// naming the range: past -rounds on a fresh run, and at or before the
// round a resumed run starts from.
func TestSnapshotAtOutsideTheRunIsRefused(t *testing.T) {
	const line = "-model mlp -clients 6 -k 3 -samples 40 -test 100 -batch 20 -quiet -rounds 4 "
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := run(parse(t, line+"-snapshot-at 5 -checkpoint "+ckpt))
	if err == nil || !strings.Contains(err.Error(), "(0, 4]") {
		t.Fatalf("-snapshot-at 5 -rounds 4: err %v, want a refusal naming (0, 4]", err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("refused run left %s behind (stat err %v)", ckpt, err)
	}
	if _, err := run(parse(t, line+"-snapshot-at 2 -checkpoint "+ckpt)); err != nil {
		t.Fatal(err)
	}
	for _, at := range []string{"1", "2"} {
		_, err := run(parse(t, line+"-resume "+ckpt+" -snapshot-at "+at+" -checkpoint "+ckpt))
		if err == nil || !strings.Contains(err.Error(), "(2, 4]") {
			t.Errorf("-snapshot-at %s on a run resumed at round 2: err %v, want a refusal naming (2, 4]", at, err)
		}
	}
}
