package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	spec := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 5}
	m1, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m1.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	// The FTCK bytes are pinned from outside the code that writes them:
	// this is the file the last commit with a separate writer and reader
	// (PR 16, 1ace6e7) produced for the same model (amd64; the weights
	// are drawn through float arithmetic).
	const parentSHA256 = "5af42c8fa03b0f1a5f594c01c698f0b151807a2eb3bc85050c3b735b2d8783d7"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); runtime.GOARCH == "amd64" && got != parentSHA256 {
		t.Errorf("checkpoint (%d bytes) has sha256 %s, the parent commit wrote %s: the byte layout moved", buf.Len(), got, parentSHA256)
	}
	m2, _ := spec.Build(2) // different init
	if tensor.MaxAbsDiff(m1.Params(), m2.Params()) == 0 {
		t.Fatal("test setup: same init")
	}
	if err := m2.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(m1.Params(), m2.Params()) != 0 {
		t.Fatal("checkpoint did not restore parameters")
	}
}

func TestCheckpointSizeMismatch(t *testing.T) {
	mlp, _ := (ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 5}).Build(1)
	cnn, _ := (ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10}).Build(1)
	var buf bytes.Buffer
	if err := mlp.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	before := cnn.ParamsCopy()
	if err := cnn.LoadParams(&buf); err == nil {
		t.Fatal("cross-architecture checkpoint accepted")
	}
	if tensor.MaxAbsDiff(before, cnn.Params()) != 0 {
		t.Fatal("failed load must not mutate the model")
	}
}

func TestCheckpointGarbage(t *testing.T) {
	m, _ := (ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 5}).Build(1)
	if err := m.LoadParams(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestCheckpointRejects pins the precise-error contract: wrong magic,
// wrong version, and truncation at every layer of the envelope each name
// the defect, and a failed load never mutates the model.
func TestCheckpointRejects(t *testing.T) {
	spec := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 5}
	m, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"wrong magic", append([]byte("NOPE"), good[4:]...), "not a model checkpoint"},
		{"wrong version", append(append([]byte("FTCK"), 9), good[5:]...), "version 9"},
		{"empty", nil, "truncated"},
		{"truncated magic", good[:2], "truncated"},
		{"truncated version", good[:4], "truncated"},
		{"truncated vector header", good[:8], "truncated"},
		{"truncated payload", good[:len(good)/2], "truncated"},
		{"bare vector", good[5:], "not a model checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := m.ParamsCopy()
			err := m.LoadParams(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("bad checkpoint accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if tensor.MaxAbsDiff(before, m.Params()) != 0 {
				t.Fatal("failed load mutated the model")
			}
		})
	}
}
