package comm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// A transport's state blob arrives inside a run snapshot and is as
// untrusted as the rest of it: RestoreState must never panic, must keep
// the residuals it has unless the whole blob is good, and must not
// allocate more than a small multiple of the bytes it was really given —
// the transport knows neither the fleet nor the model size, so there is
// nothing else to bound a claimed count by. The multiple is 16 here, not
// the 4 of Resume and LoadParams: the smallest entry a blob can hold (a
// client ID and an empty vector) is 16 bytes of stream and a map slot,
// about 170 bytes once the map has grown around it.

// hostileState is a topk:0.01+ef transport after three clients' uploads
// of a 40-parameter model, and its state blob (about 1 KB).
func hostileState(t testing.TB) (*CompressedTransport, []byte) {
	trI, err := ParseTransport("topk:0.01+ef")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*CompressedTransport)
	global := make([]float64, 40)
	for c := 0; c < 3; c++ {
		trained := make([]float64, len(global))
		trained[c], trained[20+c] = float64(c+1), -2
		dst := make([]float64, len(global))
		tr.DownInto(dst, c, 1, global)
		tr.UpInto(trained, c, 1, trained, dst)
	}
	var buf bytes.Buffer
	if err := tr.SnapshotState(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// restoreHostile feeds input to RestoreState under the allocation budget
// and checks that a refused blob leaves the transport's state alone.
func restoreHostile(t testing.TB, tr *CompressedTransport, input []byte, what string) {
	var before, after bytes.Buffer
	if err := tr.SnapshotState(&before); err != nil {
		t.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := tr.RestoreState(bytes.NewReader(input))
	runtime.ReadMemStats(&ms1)
	grew := ms1.TotalAlloc - ms0.TotalAlloc
	if budget := uint64(16*len(input) + 64<<10); grew > budget {
		t.Fatalf("%s: RestoreState allocated %d bytes for a %d-byte blob (err=%v); the budget is %d", what, grew, len(input), err, budget)
	}
	if err == nil {
		return
	}
	if err := tr.SnapshotState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("%s: a refused blob (%v) changed the transport's residuals", what, err)
	}
}

// TestRestoreStateSurvivesHostileBytes visits every byte offset of the
// blob twice: overwriting the eight bytes there with the word 0x3FFFFFFF
// (as a count or a length, a gigabyte-scale lie), and truncating there.
func TestRestoreStateSurvivesHostileBytes(t *testing.T) {
	tr, good := hostileState(t)
	restoreHostile(t, tr, good, "intact")
	lie := binary.LittleEndian.AppendUint64(nil, 0x3FFFFFFF)
	for off := range good {
		bad := append([]byte(nil), good...)
		copy(bad[off:], lie)
		restoreHostile(t, tr, bad, "lie")
		restoreHostile(t, tr, good[:off], "cut")
	}
	// The densest legal blob: nothing but smallest entries.
	empties := binary.LittleEndian.AppendUint64(nil, 4096)
	for id := uint64(0); id < 4096; id++ {
		empties = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(empties, id), 0)
	}
	restoreHostile(t, tr, empties, "4096 empty residuals")
}

// FuzzRestoreTransportState mutates the blob under the same promises.
func FuzzRestoreTransportState(f *testing.F) {
	tr, good := hostileState(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40))
	f.Fuzz(func(t *testing.T, in []byte) {
		restoreHostile(t, tr, in, "fuzz input")
	})
}
