package core

import "testing"

// TestUnsharedVersionCostsTwoAllocations takes model versions that share
// no block with any the store holds, so every block is new, into image
// tables built beforehand: each costs one slab of block records and one
// of entries, however many blocks it has — the 78 of sync10k_f32_ckpt's
// model here, with a short tail — where a slab of at most 32 blocks
// made it six. A version that shares every block costs none.
func TestUnsharedVersionCostsTwoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 78*chunkLen - 100
	var st blockStore
	ims := make([]image32, 24)
	for i := range ims {
		ims[i].blocks = make([]*block32, 0, 78)
	}
	v := make([]float64, n)
	k := 0
	take := func() {
		for i := range v {
			v[i] = float64(k*n + i) // exact in float32, and in no earlier version
		}
		st.take(&ims[k], v)
		k++
	}
	take() // the store's table of places
	if got := testing.AllocsPerRun(10, take); got != 2 {
		t.Errorf("an unshared version of 78 blocks costs %v allocations, want 2", got)
	}
	shared := func() {
		st.take(&ims[k], v)
		k++
	}
	if got := testing.AllocsPerRun(10, shared); got != 0 {
		t.Errorf("a version that shares every block costs %v allocations, want 0", got)
	}
	if st.held != 12*78 || len(st.free) != 0 {
		t.Errorf("the store holds %d blocks, %d free; want %d, 0", st.held, len(st.free), 12*78)
	}
}
