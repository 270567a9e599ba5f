package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestCorpusBytesPinned pins the synthesised bytes themselves: an FNV-64a
// hash of every split's pixel codes and labels, per kind, at one seed,
// over two full blocks and a three-sample tail. Nothing else pins the
// corpus directly; a change in it would otherwise show only as every
// trajectory digest downstream moving at once.
func TestCorpusBytesPinned(t *testing.T) {
	const n = 2*blockSamples + 3
	want := map[Kind][4]string{ // train X, train Y, test X, test Y
		KindMNIST:  {"bf3a1bf49ceed917", "abac8194884f854e", "8a9c9d5f539932c1", "751405074fa5c82b"},
		KindFMNIST: {"8c8f134c5a9c1f10", "abac8194884f854e", "9550ca22fe4e6a97", "751405074fa5c82b"},
		KindEMNIST: {"473db2abf747f4d1", "74381cc1e1fb6722", "27e82d5576193ef3", "d8483963fd81d39f"},
		KindCIFAR:  {"50237baed9dcfbdf", "48a6163b00b18dad", "c3940218461173d6", "13452d262feff0e7"},
	}
	for _, k := range Kinds() {
		train, test, err := Generate(Spec{Kind: k, Train: n, Test: n, Seed: 2023})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]string{fnvBytes(train.X), fnvLabels(train.Y), fnvBytes(test.X), fnvLabels(test.Y)}
		if got != want[k] {
			t.Errorf("%s: corpus hashes %q, pinned %q", k, got, want[k])
		}
	}
}

func fnvBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fnvLabels hashes each label as a little-endian 64-bit word.
func fnvLabels(y []int) string {
	h := fnv.New64a()
	var w [8]byte
	for _, v := range y {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
