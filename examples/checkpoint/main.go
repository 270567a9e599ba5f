// Checkpoint/resume: a run interrupted at round k and resumed in a fresh
// process is bit-for-bit the run that never stopped.
//
// Everything that shapes a federated trajectory — the global model, every
// client's historical model and RNG position, the virtual event heap with
// its in-flight updates, the aggregation policy's buffer, the churn
// process — lives behind core.RunState and serializes through Snapshot.
// This example runs one async FedTrip fleet with churn three ways:
// uninterrupted (core.Start); stepped halfway, snapshotted to a byte
// buffer, then continued in the same process; and resumed from those bytes
// in a fresh RunState rebuilt from the same flags (what `fedtrip -resume`
// does after a kill). All three print the same Result digest, an FNV
// fingerprint over every metric series at full bit precision. The run is
// one string of fedtrip flags, paste-able after `go run ./cmd/fedtrip`
// (add -digest to see the same fingerprint).
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/runtext"
)

const (
	line = "-model mlp -scale 1 -clients 8 -k 4 -samples 60 -test 300 -rounds 16 -batch 20 -seed 51 " +
		"-runtime async -latency exp:2 -concurrency 4 -buffer 2 -dropout markov:40,10"
	snapAt = 8
)

func check[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	fmt.Println("fedtrip", line)
	full := check(core.Start(check(runtext.FromLine(line))))
	fmt.Printf("uninterrupted run      %s  (best acc %.4f)\n", full.Digest(), full.BestAccuracy)

	rs := check(core.NewRunState(check(runtext.FromLine(line))))
	for i := 0; i < snapAt; i++ {
		check(rs.Step())
	}
	var ckpt bytes.Buffer
	if err := rs.Snapshot(&ckpt); err != nil {
		log.Fatal(err)
	}
	cont := check(rs.Run())
	fmt.Printf("snapshot-and-continue  %s  (%d-byte snapshot at round %d)\n", cont.Digest(), ckpt.Len(), snapAt)

	// "Fresh process": rebuild the run from the flags, load the bytes.
	rs2 := check(core.Resume(bytes.NewReader(ckpt.Bytes()), core.ResumeSpec{Spec: check(runtext.FromLine(line))}))
	resumed := check(rs2.Run())
	fmt.Printf("snapshot-and-resume    %s\n", resumed.Digest())

	if full.Digest() != cont.Digest() || full.Digest() != resumed.Digest() {
		log.Fatal("digests diverged — checkpoint/resume is broken")
	}
	fmt.Println("all three trajectories are bit-for-bit identical")
}
