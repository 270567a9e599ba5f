// Package prng is the runtime's serializable pseudo-random source. Every
// stochastic choice a federated run makes — client selection, mini-batch
// shuffling, latency draws, device sampling, churn, weight initialisation —
// flows through a prng.Rand instead of math/rand, because a run must be a
// serializable value: checkpoint/resume needs to export the exact position
// of every stream and restore it bit-for-bit, which math/rand.Rand (617
// words of hidden lagged-Fibonacci state, no accessors) cannot do.
//
// The generator is splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): one uint64 of state, a
// fixed Weyl increment, and a 3-round finalizer. It passes BigCrush, its
// entire state is one word (plus one buffered Gaussian for NormFloat64's
// pair-generating polar method), and seeding is trivially collision-
// resistant under the mixing function — which is what the seed-stream
// registry in internal/core relies on.
//
// A Rand is NOT safe for concurrent use, exactly like math/rand.Rand.
package prng

import "math"

// State is the full exportable position of one stream: the splitmix64
// counter plus NormFloat64's buffered second Gaussian. Restoring a State
// continues the stream bit-for-bit. A run snapshot stores one in 17 bytes
// (internal/core's snapRng is the only encoding).
type State struct {
	S        uint64
	Spare    float64
	HasSpare bool
}

// Rand is a deterministic splitmix64 stream.
type Rand struct {
	s        uint64
	spare    float64
	hasSpare bool
}

// New returns a stream seeded with seed. Distinct seeds give statistically
// independent streams; use Mix to derive seeds from names and indices.
func New(seed int64) *Rand {
	return &Rand{s: uint64(seed)}
}

// Reseed resets the stream to the exact state New(seed) returns, without
// allocating. It is the scratch-Rand primitive behind stateless per-
// entity derivation: a caller holding one Rand can re-seed it per lookup
// (device speed, latency base, fault class of client k) instead of
// materializing a fleet-wide array or allocating a Rand per query.
func (r *Rand) Reseed(seed int64) {
	r.s = uint64(seed)
	r.spare = 0
	r.hasSpare = false
}

// Mix scrambles x through the splitmix64 finalizer. It is the seed-
// derivation primitive: Mix(seed ^ Mix(nameHash + index)) spreads any
// structured input over the full 64-bit space.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64a is the FNV-1a hash of s (inlined, allocation-free; the constants
// are the standard FNV-64 parameters).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// StreamSeed derives the seed of the named stream (name, k) under the
// given run seed. Two mixing rounds separate the (name, k) space from the
// run-seed space, so structured inputs (small seeds, sequential indices)
// still land uniformly in 64 bits. This is the one seed-derivation rule
// shared by every named stream in the repository: internal/core's seed
// registry and the experiment harnesses both resolve names through it, so
// streams are independent by construction instead of by offset hygiene.
//
// Stream names are part of the deterministic-run contract: renaming a
// stream changes its seed and therefore every trajectory downstream of
// it. The fedtripvet seedstream analyzer enforces that call sites pass
// names registered in the package's seeds.go.
func StreamSeed(runSeed int64, name string, k int) int64 {
	h := Mix(fnv64a(name) + uint64(k)*0x9E3779B97F4A7C15)
	return int64(Mix(uint64(runSeed) ^ h))
}

// Stream returns a fresh PRNG positioned at the start of the k-th
// instance of the named stream (k = 0 for unindexed streams).
func Stream(runSeed int64, name string, k int) *Rand {
	return New(StreamSeed(runSeed, name, k)) //fedtripvet:allow registry trampoline: name is the caller's registered constant
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 returns a uniform int64 in [0, 1<<63).
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). It panics if n <= 0. Masked
// rejection sampling keeps the distribution exactly uniform with a
// bounded expected draw count (< 2).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return int(r.Uint64() & uint64(n-1))
	}
	mask := uint64(1)
	for mask < uint64(n) {
		mask = mask<<1 | 1
	}
	for {
		v := r.Uint64() & mask
		if v < uint64(n) {
			return int(v)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal deviate via the polar
// (Marsaglia) method. The method produces Gaussians in pairs; the spare
// is buffered and is part of the exportable State, so a snapshot taken
// between the two halves of a pair still resumes bit-for-bit.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential deviate with mean 1 by inversion.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Perm returns a uniform permutation of [0, n) (Fisher–Yates, inside-out),
// drawing exactly n Intn calls.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements via swap (Fisher–
// Yates, top-down), drawing exactly n-1 Intn calls. It panics if n < 0,
// matching math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("prng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// State exports the stream's exact position.
func (r *Rand) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState restores a position exported by State.
func (r *Rand) SetState(st State) {
	r.s, r.spare, r.hasSpare = st.S, st.Spare, st.HasSpare
}
