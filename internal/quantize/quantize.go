// Package quantize implements communication-compression primitives for
// the federated uplink: uniform b-bit quantization and top-k / rand-k
// sparsification of model vectors. The transports that apply them to
// client uploads (as deltas against the last downlink, the standard
// delta-encoding of production FL systems) live in internal/comm.
//
// Every primitive has two forms: an allocating one (Quantize, TopK,
// RandK, Dequantize) and an ...Into one that writes into a value and
// scratch the caller keeps, which is what a transport calls once per
// transfer. The allocating forms call the Into forms, so there is one
// implementation of each codec.
//
// The paper reduces communication by needing fewer rounds; these
// primitives reduce bytes per round, and the ext-quant experiment shows
// the two axes compose: FedTrip at 8-bit uplink keeps its convergence
// while shrinking upload traffic ~4x versus float32.
package quantize

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/prng"
)

// Quantized is a uniformly quantized vector: values are mapped to
// [0, 2^bits-1] over [Min, Max] and packed little-endian, lowest bits
// first.
type Quantized struct {
	Bits     int
	N        int
	Min, Max float64
	Data     []byte
}

// Quantize compresses v to bits per element (1..16). All-equal vectors
// (Max == Min) are representable exactly.
func Quantize(v []float64, bits int) (*Quantized, error) {
	q := &Quantized{}
	if err := QuantizeInto(q, v, bits); err != nil {
		return nil, err
	}
	return q, nil
}

// QuantizeInto is Quantize writing into q, reusing q.Data's capacity. On
// an error q is unspecified.
func QuantizeInto(q *Quantized, v []float64, bits int) error {
	if bits < 1 || bits > 16 {
		return fmt.Errorf("quantize: bits %d outside [1,16]", bits)
	}
	*q = Quantized{Bits: bits, N: len(v), Data: q.Data[:0]}
	if len(v) == 0 {
		return nil
	}
	q.Min, q.Max = v[0], v[0]
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("quantize: non-finite value %v", x)
		}
		if x < q.Min {
			q.Min = x
		}
		if x > q.Max {
			q.Max = x
		}
	}
	levels := float64(uint64(1)<<bits - 1)
	span := q.Max - q.Min
	packed := (len(v)*bits + 7) / 8
	q.Data = slices.Grow(q.Data, packed)[:packed]
	var acc uint64
	accBits := 0
	byteIdx := 0
	for _, x := range v {
		var code uint64
		if span > 0 {
			code = uint64(math.Round((x - q.Min) / span * levels))
		}
		acc |= code << accBits
		accBits += bits
		for accBits >= 8 {
			q.Data[byteIdx] = byte(acc)
			acc >>= 8
			accBits -= 8
			byteIdx++
		}
	}
	if accBits > 0 {
		q.Data[byteIdx] = byte(acc)
	}
	return nil
}

// Dequantize reconstructs the (lossy) vector.
func (q *Quantized) Dequantize() []float64 {
	out := make([]float64, q.N)
	q.DequantizeInto(out)
	return out
}

// DequantizeInto is Dequantize writing into out, which must have length
// N.
func (q *Quantized) DequantizeInto(out []float64) {
	if len(out) != q.N {
		panic(fmt.Sprintf("quantize: dequantize target %d != %d", len(out), q.N))
	}
	if q.N == 0 {
		return
	}
	levels := float64(uint64(1)<<q.Bits - 1)
	span := q.Max - q.Min
	var acc uint64
	accBits := 0
	byteIdx := 0
	mask := uint64(1)<<q.Bits - 1
	for i := 0; i < q.N; i++ {
		for accBits < q.Bits {
			acc |= uint64(q.Data[byteIdx]) << accBits
			accBits += 8
			byteIdx++
		}
		code := acc & mask
		acc >>= q.Bits
		accBits -= q.Bits
		if span > 0 {
			out[i] = q.Min + float64(float64(code)/levels*span)
		} else {
			out[i] = q.Min
		}
	}
}

// WireSize returns the encoded size in bytes: header (bits, n, min, max)
// plus the packed payload.
func (q *Quantized) WireSize() int64 {
	return 1 + 8 + 8 + 8 + int64(len(q.Data))
}

// MaxError returns the worst-case absolute reconstruction error of this
// quantization: half a quantization step.
func (q *Quantized) MaxError() float64 {
	levels := float64(uint64(1)<<q.Bits - 1)
	if levels == 0 || q.Max == q.Min {
		return 0
	}
	return (q.Max - q.Min) / levels / 2
}

// Sparse is a top-k sparsified vector: the k largest-magnitude entries,
// stored as (index, float32 value) pairs.
type Sparse struct {
	N       int
	Indices []int32
	Values  []float32
}

// TopK keeps the k largest-magnitude entries of v.
func TopK(v []float64, k int) (*Sparse, error) {
	s := &Sparse{}
	if err := TopKInto(s, make([]float64, len(v)), v, k); err != nil {
		return nil, err
	}
	return s, nil
}

// TopKInto is TopK writing into s, reusing the capacity of s.Indices and
// s.Values. scratch has len(v) and the selection overwrites it; it is
// validated, with k, before anything is written.
//
// The threshold is the exact k-th largest magnitude. Entries above it
// are kept in index order, then entries equal to it in index order until
// k are kept. From len(v) >= bracketFloor a fixed-stride sample
// brackets the threshold, one pass over v counts the entries above the
// bracket, collects those inside it into scratch and counts those at its
// low end, and a quickselect runs over the collected ones only. A delta
// holding a NaN, a shorter one, and a bracket that misses take the full
// quickselect over every magnitude (fullTopK), whose threshold on a NaN
// depends on its partition order; the bracket gives the same threshold
// wherever the full quickselect's is exact.
//
//fedtripvet:hotpath
func TopKInto(s *Sparse, scratch, v []float64, k int) error {
	if k < 0 || k > len(v) {
		return fmt.Errorf("quantize: top-k %d outside [0,%d]", k, len(v)) //fedtripvet:allow a caller's bug, never a transfer's
	}
	if len(scratch) != len(v) {
		return fmt.Errorf("quantize: top-k scratch %d != %d", len(scratch), len(v)) //fedtripvet:allow a caller's bug, never a transfer's
	}
	s.reset(len(v), k)
	if k == 0 {
		return nil
	}
	if !s.bracketTopK(scratch, v, k) {
		s.fullTopK(scratch, v, k)
	}
	return nil
}

// bracketFloor is the shortest vector TopKInto brackets; sampleLen is
// the bracket's sample size.
const (
	bracketFloor = 4096
	sampleLen    = 1024
)

// bracketTopK selects s's k entries when a sample of v brackets the
// threshold and v holds no NaN, and reports whether it did; otherwise it
// leaves s as it found it. The bracket is the sample's order statistics
// about the threshold's expected place, k·sampleLen/n, three standard
// deviations and two places out each way; an open end is +Inf above and
// 0 below, which no magnitude falls outside.
//
//fedtripvet:hotpath
func (s *Sparse) bracketTopK(scratch, v []float64, k int) bool {
	n := len(v)
	if n < bracketFloor {
		return false
	}
	stride := n / sampleLen
	sample := scratch[:sampleLen]
	for i := range sample {
		m := math.Abs(v[i*stride])
		if m != m {
			return false
		}
		sample[i] = m
	}
	r := float64(k) * sampleLen / float64(n)
	d := float64(3*math.Sqrt(r)) + 2
	hi, lo := math.Inf(1), 0.0
	rh := max(int(math.Floor(r-d)), -1) // sample rank of hi, from 0 at the largest
	if rh >= 0 {
		hi = SelectDesc(sample, rh+1)
	}
	if rl := int(math.Ceil(r + d)); rl < sampleLen {
		// SelectDesc left sample[rh+1:] no larger than hi.
		lo = SelectDesc(sample[rh+1:], rl-rh)
	}

	// The magnitudes inside the bracket fill scratch from the front. The
	// indices of every entry above lo fill it from the back, the j-th at
	// n-1-j, while the two fit (listed).
	above, in, atLo := 0, 0, 0
	listed := true
	for i, x := range v {
		m := math.Abs(x)
		switch {
		case m > lo:
			if m > hi {
				above++
			} else {
				scratch[in] = m
				in++
			}
			if listed = listed && 2*in+above <= n; listed {
				scratch[n-above-in] = math.Float64frombits(uint64(i))
			}
		case m < lo:
		case m == lo:
			atLo++
		default:
			return false // NaN
		}
	}
	need := k - above
	var thresh float64
	var gt int
	switch {
	case need <= 0 || need > in+atLo:
		return false
	case need <= in:
		cand := scratch[:in]
		thresh = SelectDesc(cand, need)
		gt = above
		for _, m := range cand {
			if m > thresh {
				gt++
			}
		}
	default:
		thresh, gt = lo, above+in
	}

	// The entries above the threshold fill [0, gt) and those at it
	// [gt, k), each in index order: what two ordered passes keep. Above
	// lo they are all listed.
	s.Indices, s.Values = s.Indices[:k], s.Values[:k]
	a, e := 0, gt
	keep := func(i int, x float64) bool {
		if m := math.Abs(x); m > thresh {
			s.Indices[a], s.Values[a] = int32(i), float32(x)
			a++
		} else if m == thresh && e < k {
			s.Indices[e], s.Values[e] = int32(i), float32(x)
			e++
		}
		return a == gt && e == k
	}
	if listed && thresh > lo {
		for j := range above + in {
			if i := int(math.Float64bits(scratch[n-1-j])); keep(i, v[i]) {
				break
			}
		}
		return true
	}
	for i, x := range v {
		if keep(i, x) {
			break
		}
	}
	return true
}

// fullTopK selects s's k entries from every magnitude of v, written into
// scratch and quickselected: the threshold, then the entries above it
// and those at it, in two passes.
func (s *Sparse) fullTopK(scratch, v []float64, k int) {
	for i, x := range v {
		scratch[i] = math.Abs(x)
	}
	thresh := SelectDesc(scratch, k)
	for i, x := range v {
		if math.Abs(x) > thresh {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, float32(x))
		}
	}
	// Fill remaining slots with entries exactly at the threshold.
	for i, x := range v {
		if len(s.Indices) >= k {
			break
		}
		if math.Abs(x) == thresh {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, float32(x))
		}
	}
}

// reset empties s for a vector of length n with room for k entries.
func (s *Sparse) reset(n, k int) {
	s.N = n
	s.Indices = slices.Grow(s.Indices[:0], k)
	s.Values = slices.Grow(s.Values[:0], k)
}

// RandK keeps k uniformly random entries of v, sampled without
// replacement from rng — the unbiased sparsifier of the compression
// literature (top-k's cheap, gradient-oblivious cousin). Indices are
// returned in ascending order, so the encoding is canonical for a given
// draw. Callers that need determinism across processes (transports,
// resume) must derive rng statelessly, e.g. from (seed, client, round).
func RandK(v []float64, k int, rng *prng.Rand) (*Sparse, error) {
	s := &Sparse{}
	if err := RandKInto(s, make([]int32, len(v)), v, k, rng); err != nil {
		return nil, err
	}
	return s, nil
}

// RandKInto is RandK writing into s, reusing the capacity of s.Indices
// and s.Values. idx is scratch of len(v) the draw overwrites.
func RandKInto(s *Sparse, idx []int32, v []float64, k int, rng *prng.Rand) error {
	if k < 0 || k > len(v) {
		return fmt.Errorf("quantize: rand-k %d outside [0,%d]", k, len(v))
	}
	if len(idx) != len(v) {
		return fmt.Errorf("quantize: rand-k scratch %d != %d", len(idx), len(v))
	}
	s.reset(len(v), k)
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates: after k swaps the first k slots are a uniform
	// sample without replacement.
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(v)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	s.Indices = append(s.Indices, idx[:k]...)
	slices.Sort(s.Indices)
	for _, id := range s.Indices {
		s.Values = append(s.Values, float32(v[id]))
	}
	return nil
}

// SelectDesc returns the k-th largest value of the NaN-free xs (1-based
// k) and permutes xs so that it sits at k-1, nothing before it smaller
// and nothing after it larger. With a NaN in xs what it returns depends
// on where the NaN lies.
func SelectDesc(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	target := k - 1 // index in descending order
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] > pivot {
				i++
			}
			for xs[j] < pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[target]
}

// DenseInto scatters the sparse entries into dst (which must have length
// N); untouched entries keep their current values, so callers can apply
// the sparse delta on top of a reference vector.
func (s *Sparse) DenseInto(dst []float64) error {
	if len(dst) != s.N {
		return fmt.Errorf("quantize: dense target %d != %d", len(dst), s.N)
	}
	for i, idx := range s.Indices {
		dst[idx] = float64(s.Values[i])
	}
	return nil
}

// WireSize returns the encoded byte size: header + (int32 index + float32
// value) per kept entry.
func (s *Sparse) WireSize() int64 {
	return 8 + int64(len(s.Indices))*8
}
