package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLockStepBlockMergeMatchesWidened checks the one thing a merge that
// reads its updates a block at a time relies on: a block read touches
// only entries [lo, hi) of the update's base. Behind the lock-step gate
// a bitmap patch's base, and an index patch's, is s.global itself, and
// the merge moves the global's block [lo, hi) as soon as every update's
// block is read, so the blocks before lo have moved when [lo, hi) is
// read. A read that strayed outside its block would see moved entries.
// The buffers here span several blocks (the compact-merge oracle's fit
// in one) and every robust policy, clipped and not, must move the global
// to the bits denseMerge moves it to with every update widened first.
// The merge needs no |w| scratch of its own: the server's widen scratch
// serves only Server.hold and the snapshot.
func TestLockStepBlockMergeMatchesWidened(t *testing.T) {
	kinds := []string{"median", "trimmedmean:0.25", "krum:0.2", "fedavg"}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 6; trial++ {
		n := 3*chunkLen + 1 + rng.Intn(chunkLen)
		k := 3 + rng.Intn(6)
		global := make([]float64, n)
		for j := range global {
			global[j] = rng.NormFloat64()
		}
		for _, kind := range kinds {
			for _, clip := range []float64{0, 2} {
				for _, eta := range []float64{1, 0.6} {
					p := mustPolicy(t, kind)
					p.Clip = clip
					g := slices.Clone(global)
					st := newChunkStore(n, k, k)
					updates := make([]Update, k)
					wide := make([][]float64, k)
					for i := range updates {
						u := &updates[i]
						x := slices.Clone(g)
						if i%2 == 0 {
							// A bitmap patch: a third of the entries moved.
							for _, j := range rng.Perm(n)[:n/3] {
								x[j] += 0.1 * rng.NormFloat64()
							}
							u.bitmap, u.base = st.takeBits(x, g, n), g
						} else {
							// An index patch against the float32 image of
							// the global.
							for j := range x {
								x[j] = f32Image(x[j])
							}
							for _, j := range rng.Perm(n)[:n/5] {
								x[j] += 0.1 * rng.NormFloat64()
							}
							u.patch, u.base = new(uploadPatch), g
							if !patchUpload(u, x) {
								t.Fatal("a fifth-dense draw was not compacted")
							}
						}
						wide[i] = x
					}
					weights := make([]float64, k)
					for i := range weights {
						weights[i] = float64(1 + rng.Intn(9))
					}
					want := slices.Clone(g)
					oracle := &denseMerge{policy: p, global: want}
					oracle.merge(slices.Clone(weights), wide, eta)

					s := &Server{global: g, spec: RunSpec{Policy: p}}
					s.aggregateWeightedRate(weights, updates, eta)
					for j := range want {
						if math.Float64bits(g[j]) != math.Float64bits(want[j]) {
							t.Fatalf("n %d, k %d, %s+clip:%g, rate %g: global[%d] = %v, widened %v", n, k, kind, clip, eta, j, g[j], want[j])
						}
					}
					recycleUpdates(updates)
				}
			}
		}
	}
}

// TestRobustMergeAllocFree holds the robust merges at zero allocations
// once their scratch has grown to the buffer: a median, a trimmed mean
// and a krum of 32 updates over four blocks, dense and narrowed.
func TestRobustMergeAllocFree(t *testing.T) {
	const n, k = 4*chunkLen - 7, 32
	rng := rand.New(rand.NewSource(52))
	for _, kind := range []string{"median", "trimmedmean:0.25", "krum:0.2"} {
		updates := make([]Update, k)
		for i := range updates {
			v := make([]float32, n)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			if i%2 == 0 {
				updates[i].narrow = v
			} else {
				updates[i].Params = make([]float64, n)
				widen(updates[i].Params, v)
			}
		}
		weights := make([]float64, k)
		s := &Server{global: make([]float64, n), spec: RunSpec{Policy: mustPolicy(t, kind)}}
		merge := func() {
			for i := range weights {
				weights[i] = 1
			}
			s.aggregateWeightedRate(weights, updates, 0.6)
		}
		merge()
		if a := testing.AllocsPerRun(5, merge); a != 0 {
			t.Errorf("%s of %d updates: %v allocations per merge, want 0", kind, k, a)
		}
	}
}
