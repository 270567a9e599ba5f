package nn

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// A checkpoint is untrusted input: LoadParams must never panic, never
// touch the model unless the whole file is good, and never allocate more
// than the model it loads into plus a small multiple of the bytes it was
// really given — whatever count those bytes claim.

// loadHostile feeds input to LoadParams under the allocation budget and
// checks the all-or-nothing contract.
func loadHostile(t testing.TB, m *Model, input []byte, what string) {
	before := m.ParamsCopy()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := m.LoadParams(bytes.NewReader(input))
	runtime.ReadMemStats(&ms1)
	grew := ms1.TotalAlloc - ms0.TotalAlloc
	if budget := uint64(8*len(before) + 4*len(input) + 64<<10); grew > budget {
		t.Fatalf("%s: LoadParams allocated %d bytes for a %d-byte file (err=%v); the budget is %d", what, grew, len(input), err, budget)
	}
	if err != nil && tensor.MaxAbsDiff(before, m.Params()) != 0 {
		t.Fatalf("%s: a refused checkpoint (%v) changed the model", what, err)
	}
	if err == nil && len(input) < 4+1+4+8+8*len(before) {
		t.Fatalf("%s: a %d-byte file was accepted as a %d-parameter checkpoint", what, len(input), len(before))
	}
}

func hostileModel(t testing.TB) (*Model, []byte) {
	m, err := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 4, Width: 4, Classes: 3, Scale: 0.05}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestLoadParamsSurvivesHostileBytes visits every byte offset of a small
// checkpoint twice: overwriting the eight bytes there with the word
// 0x3FFFFFFF, and truncating the file there. The 17-byte file — a good
// header and a count of 2^31 — used to end the process with a 16 GiB
// allocation.
func TestLoadParamsSurvivesHostileBytes(t *testing.T) {
	m, good := hostileModel(t)
	loadHostile(t, m, good, "intact")
	lie := binary.LittleEndian.AppendUint64(nil, 0x3FFFFFFF)
	for off := range good {
		bad := append([]byte(nil), good...)
		copy(bad[off:], lie)
		loadHostile(t, m, bad, "lie")
		loadHostile(t, m, good[:off], "cut")
	}
	loadHostile(t, m, binary.LittleEndian.AppendUint64(append([]byte(nil), good[:9]...), 1<<31), "17-byte file")
}

// FuzzLoadCheckpoint mutates a good checkpoint under the same promises.
func FuzzLoadCheckpoint(f *testing.F) {
	m, good := hostileModel(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(binary.LittleEndian.AppendUint64(append([]byte(nil), good[:9]...), 1<<31))
	f.Fuzz(func(t *testing.T, in []byte) {
		loadHostile(t, m, in, "fuzz input")
	})
}
