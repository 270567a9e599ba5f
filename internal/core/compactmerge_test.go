package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// compactMergeRuns counts the test's invocations, so each run of
// -count=N draws a fresh set of seeds.
var compactMergeRuns int64

// TestCompactMergeMatchesDense is the oracle for the merge's compact
// read paths. A random buffer mixes dense updates, updates patched
// against the float32 image of their version's global — in a lock-step
// buffer, the global the merge writes — updates narrowed to float32, and
// bitmap patches against their version's global itself, under random
// weights with zeros, the odd non-finite upload, and ±0 on both sides
// of a patch. The merge of that buffer must move
// the global to the bits, and reject the same count, as denseMerge —
// the merge as it stood when every update was widened before it: the
// same screen, weighted sum, coordinate window and krum, copied here
// over dense vectors — does with every update widened. Every policy
// kind, with and without a clip guard, at merge rates 1 and 0.6.
func TestCompactMergeMatchesDense(t *testing.T) {
	first := compactMergeRuns * 64
	compactMergeRuns++
	kinds := []string{"fedavg", "fedbuff", "median", "trimmedmean:0.25", "krum:0.2"}
	var mixes [4]int
	for seed := first; seed < first+64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range kinds {
			for _, clip := range []float64{0, 0.5, 4, 1e9} {
				for _, eta := range []float64{1, 0.6} {
					p := mustPolicy(t, kind)
					p.Clip = clip
					compactMergeCase(t, rng, p, eta, &mixes)
					if t.Failed() {
						t.Fatalf("seed %d, policy %s+clip:%g, rate %g", seed, kind, clip, eta)
					}
				}
			}
		}
	}
	if slices.Contains(mixes[:], 0) {
		t.Fatalf("%d dense, %d patched, %d narrowed, %d bitmap-patched updates: a form went unchecked", mixes[0], mixes[1], mixes[2], mixes[3])
	}
}

// compactMergeCase draws one buffer and compares the two merges of it.
func compactMergeCase(t *testing.T, rng *rand.Rand, p Policy, eta float64, mixes *[4]int) {
	t.Helper()
	n := 8 + rng.Intn(40)
	k := 1 + rng.Intn(7)
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(float32(rng.NormFloat64()))
		}
		return rng.NormFloat64()
	}
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	global := vec()
	lockStep := rng.Intn(2) == 0
	st := newChunkStore(n, k, k)
	updates := make([]Update, k)
	wide := make([][]float64, k)
	for i := range updates {
		u := &updates[i]
		u.ClientID = i
		var x []float64
		switch rng.Intn(4) {
		case 0:
			x = vec()
			u.Params = slices.Clone(x)
		case 1:
			// A patch against a version's global: the global itself
			// behind the lock-step gate, an older copy otherwise, held
			// as its float32 image half the time.
			base := global
			if !lockStep {
				base = vec()
			}
			x = make([]float64, n)
			for j := range x {
				x[j] = f32Image(base[j])
			}
			if !lockStep && rng.Intn(2) == 0 {
				u.base32 = imageOf(base)
				base = nil
			}
			for _, j := range rng.Perm(n)[:rng.Intn(n/4+1)] {
				switch rng.Intn(4) {
				case 0: // the other zero, where the image has one
					x[j] = math.Copysign(0, -math.Copysign(1, x[j]))
				default:
					x[j] = draw()
				}
			}
			u.patch, u.base = new(uploadPatch), base
			if !patchUpload(u, x) {
				t.Fatal("a quarter-dense draw was not compacted")
			}
		case 2:
			x = make([]float64, n)
			u.narrow = make([]float32, n)
			for j := range x {
				u.narrow[j] = float32(draw())
				x[j] = float64(u.narrow[j])
			}
		case 3:
			// A bitmap patch against a version's global itself, changed
			// anywhere from nowhere to everywhere.
			base := global
			if !lockStep {
				base = vec()
			}
			x = slices.Clone(base)
			for _, j := range rng.Perm(n)[:rng.Intn(n+1)] {
				switch rng.Intn(4) {
				case 0: // the other zero, where the version has one
					x[j] = math.Copysign(0, -math.Copysign(1, x[j]))
				default:
					x[j] = draw()
				}
			}
			if j := rng.Intn(n); !lockStep && rng.Intn(4) == 0 {
				// A version with a NaN: one the upload changed away, which
				// leaves it finite, or one it kept, which the screen must
				// reject.
				if base[j] = math.NaN(); rng.Intn(2) == 0 {
					x[j] = base[j]
				} else if math.IsNaN(x[j]) {
					x[j] = 0
				}
			}
			u.bitmap, u.base = st.takeBits(x, base, n), base
		}
		if rng.Intn(9) == 0 {
			// A non-finite upload, which the screen must reject.
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			j := rng.Intn(n)
			x[j] = bad
			switch {
			case u.Params != nil:
				u.Params[j] = bad
			case u.narrow != nil:
				u.narrow[j] = float32(bad)
			case u.bitmap != nil:
				u.bitmap.release()
				u.bitmap = st.takeBits(x, u.base, n)
			default:
				if !patchUpload(u, x) {
					u.patch, u.base, u.base32, u.Params = nil, nil, nil, slices.Clone(x)
				}
			}
		}
		mixes[form(u)]++
		wide[i] = x
	}
	weights := make([]float64, k)
	for i := range weights {
		if rng.Intn(4) != 0 {
			weights[i] = float64(1 + rng.Intn(30))
		}
	}

	want := slices.Clone(global)
	oracle := &denseMerge{policy: p, global: want}
	oracle.merge(slices.Clone(weights), wide, eta)

	s := &Server{global: global, spec: RunSpec{Config: Config{}, Policy: p}}
	s.aggregateWeightedRate(weights, updates, eta)
	if s.rejectedUpdates != oracle.rejected {
		t.Errorf("rejected %d updates, the dense merge %d", s.rejectedUpdates, oracle.rejected)
	}
	for j := range want {
		if math.Float64bits(s.global[j]) != math.Float64bits(want[j]) {
			t.Errorf("global[%d] = %v (%x), the dense merge %v (%x)", j, s.global[j], math.Float64bits(s.global[j]), want[j], math.Float64bits(want[j]))
			return
		}
	}
	// The screen clips a dense update in place, and only one that
	// weighs: it must leave each as the dense merge left it.
	for i, u := range updates {
		if u.Params == nil {
			continue
		}
		for j, v := range u.Params {
			if math.Float64bits(v) != math.Float64bits(wide[i][j]) {
				t.Errorf("update %d (weight %g) entry %d = %v after the merge, the dense merge left %v", i, weights[i], j, v, wide[i][j])
				return
			}
		}
	}
}

// patchUpload compacts x into u's patch against u's base, whichever
// width holds it, and reports whether x was sparse enough.
func patchUpload(u *Update, x []float64) bool {
	var sparse bool
	if u.base32 != nil {
		sparse, _ = compact(u.patch, x, u.base32)
	} else {
		sparse, _ = compact(u.patch, x, flat(u.base))
	}
	return sparse
}

// imageOf is v's float32 image held as a version is, in a block store
// of its own.
func imageOf(v []float64) *image32 {
	var st blockStore
	im := new(image32)
	st.take(im, v)
	return im
}

// form is 0 for a dense update, 1 for a patched one, 2 for a narrowed
// one, 3 for a bitmap-patched one.
func form(u *Update) int {
	switch {
	case u.patch != nil:
		return 1
	case u.narrow != nil:
		return 2
	case u.bitmap != nil:
		return 3
	}
	return 0
}

// denseMerge is the merge as it stood before compact updates reached it:
// every update a dense vector, clipped in place by the screen, summed by
// WeightedSumInto, or handed whole to the robust estimators.
type denseMerge struct {
	policy   Policy
	global   []float64
	rejected int
}

func (m *denseMerge) merge(weights []float64, vecs [][]float64, eta float64) {
	for i, v := range vecs {
		if !tensor.AllFinite(v) {
			weights[i] = 0
			m.rejected++
		}
	}
	if maxNorm := m.policy.Clip; maxNorm != 0 {
		for i, v := range vecs {
			if weights[i] <= 0 {
				continue
			}
			var sq float64
			for j, x := range v {
				d := x - m.global[j]
				sq += d * d
			}
			if n := math.Sqrt(sq); n > maxNorm {
				scale := maxNorm / n
				for j := range v {
					v[j] = m.global[j] + scale*(v[j]-m.global[j])
				}
			}
		}
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 || eta == 0 {
		return
	}
	avg := make([]float64, len(m.global))
	if m.policy.robust() {
		var adm [][]float64
		for i, v := range vecs {
			if weights[i] > 0 {
				adm = append(adm, v)
			}
		}
		k := len(adm)
		switch m.policy.Kind {
		case PolicyMedian:
			denseWindow(avg, adm, (k-1)/2, k/2)
		case PolicyTrimmedMean:
			g := int(m.policy.Arg * float64(k))
			if 2*g >= k {
				g = (k - 1) / 2
			}
			denseWindow(avg, adm, g, k-1-g)
		case PolicyKrum:
			denseKrum(avg, adm, m.policy.Arg)
		}
	} else {
		for i := range weights {
			weights[i] /= total
		}
		if eta == 1 {
			tensor.WeightedSumInto(m.global, weights, vecs)
			return
		}
		tensor.WeightedSumInto(avg, weights, vecs)
	}
	if eta == 1 {
		copy(m.global, avg)
		return
	}
	for i := range m.global {
		m.global[i] += eta * (avg[i] - m.global[i])
	}
}

func denseWindow(dst []float64, vecs [][]float64, lo, hi int) {
	col := make([]float64, len(vecs))
	inv := 1 / float64(hi-lo+1)
	for j := range dst {
		for i, v := range vecs {
			col[i] = v[j]
		}
		slices.Sort(col)
		var sum float64
		for i := lo; i <= hi; i++ {
			sum += col[i]
		}
		dst[j] = sum * inv
	}
}

func denseKrum(dst []float64, vecs [][]float64, frac float64) {
	k := len(vecs)
	f := int(frac * float64(k))
	if f > k-1 {
		f = k - 1
	}
	keep := k - f
	closest := min(max(k-f-2, 1), k-1)
	dist := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			var sq float64
			for x := range vecs[i] {
				d := vecs[i][x] - vecs[j][x]
				sq += d * d
			}
			dist[i*k+j], dist[j*k+i] = sq, sq
		}
	}
	score := make([]float64, k)
	col := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		col = col[:0]
		for j := 0; j < k; j++ {
			if j != i {
				col = append(col, dist[i*k+j])
			}
		}
		slices.Sort(col)
		var sum float64
		for j := 0; j < closest && j < len(col); j++ {
			sum += col[j]
		}
		score[i] = sum
	}
	clear(dst)
	inv := 1 / float64(keep)
	for sel := 0; sel < keep; sel++ {
		best := -1
		for i := 0; i < k; i++ {
			if score[i] >= 0 && (best < 0 || score[i] < score[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		score[best] = -1
		for i := range dst {
			dst[i] += inv * vecs[best][i]
		}
	}
}
