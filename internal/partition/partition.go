// Package partition assigns training samples to federated clients under
// the paper's three data-heterogeneity regimes (§V.A, Fig. 4): IID,
// label-skewed Dirichlet(alpha), and orthogonal class clusters.
//
// A partition is a [][]int: for each client, the indices of its samples in
// the training set. Partitioning is deterministic given the rng.
package partition

import (
	"fmt"
	"math"
)

// Rand is the random source a partition draws from. Both *math/rand.Rand
// (caller-owned, as runtext.Task.Config constructs for every program) and
// *prng.Rand (derived, named seed streams) satisfy it, so partitioning stays deterministic given the rng without
// this package deciding where randomness comes from.
type Rand interface {
	Perm(n int) []int
	Shuffle(n int, swap func(i, j int))
	Intn(n int) int
	Float64() float64
	NormFloat64() float64
}

// Scheme names a partitioning regime.
type Scheme struct {
	// Name is one of "iid", "dirichlet", "orthogonal".
	Name string
	// Alpha is the Dirichlet concentration (dirichlet only). The paper
	// uses 0.1 ("Dir-0.1") and 0.5 ("Dir-0.5").
	Alpha float64
	// Clusters is the orthogonal cluster count (orthogonal only). The
	// paper uses 5 ("Orthogonal-5") and 10 ("Orthogonal-10").
	Clusters int
}

// String renders the paper's name for the scheme ("Dir-0.5" etc.).
func (s Scheme) String() string {
	switch s.Name {
	case "dirichlet":
		return fmt.Sprintf("Dir-%g", s.Alpha)
	case "orthogonal":
		return fmt.Sprintf("Orthogonal-%d", s.Clusters)
	default:
		return "IID"
	}
}

// IID returns the scheme with uniformly random assignment.
func IID() Scheme { return Scheme{Name: "iid"} }

// Dirichlet returns the label-skew scheme with concentration alpha.
func Dirichlet(alpha float64) Scheme { return Scheme{Name: "dirichlet", Alpha: alpha} }

// Orthogonal returns the clustered scheme with k clusters.
func Orthogonal(k int) Scheme { return Scheme{Name: "orthogonal", Clusters: k} }

// Partition splits sample indices among clients. labels are the training
// labels, classes the number of classes, perClient the number of samples
// each client receives. Sampling is without replacement; the scheme
// degrades gracefully when a class pool runs dry by renormalising over the
// remaining classes.
func Partition(s Scheme, labels []int, classes, clients, perClient int, rng Rand) ([][]int, error) {
	if clients <= 0 || perClient <= 0 {
		return nil, fmt.Errorf("partition: need positive clients (%d) and perClient (%d)", clients, perClient)
	}
	if clients*perClient > len(labels) {
		return nil, fmt.Errorf("partition: %d clients x %d samples exceeds dataset size %d", clients, perClient, len(labels))
	}
	switch s.Name {
	case "iid":
		return iid(labels, clients, perClient, rng), nil
	case "dirichlet":
		if !(s.Alpha > 0) || math.IsInf(s.Alpha, 1) { // NaN and inf would never finish a draw
			return nil, fmt.Errorf("partition: dirichlet alpha %v must be positive and finite", s.Alpha)
		}
		return dirichlet(labels, classes, clients, perClient, s.Alpha, rng), nil
	case "orthogonal":
		if s.Clusters <= 0 || s.Clusters > clients {
			return nil, fmt.Errorf("partition: clusters %d must be in [1,%d]", s.Clusters, clients)
		}
		if s.Clusters > classes {
			return nil, fmt.Errorf("partition: %d clusters for %d classes", s.Clusters, classes)
		}
		return orthogonal(labels, classes, clients, perClient, s.Clusters, rng), nil
	}
	return nil, fmt.Errorf("partition: unknown scheme %q", s.Name)
}

func iid(labels []int, clients, perClient int, rng Rand) [][]int {
	perm := rng.Perm(len(labels))
	parts := make([][]int, clients)
	for k := range parts {
		parts[k] = append([]int(nil), perm[k*perClient:(k+1)*perClient]...)
	}
	return parts
}

// classPools groups sample indices by label, each pool shuffled.
func classPools(labels []int, classes int, rng Rand) [][]int {
	pools := make([][]int, classes)
	for i, y := range labels {
		pools[y] = append(pools[y], i)
	}
	for _, p := range pools {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return pools
}

func dirichlet(labels []int, classes, clients, perClient int, alpha float64, rng Rand) [][]int {
	pools := classPools(labels, classes, rng)
	parts := make([][]int, clients)
	for k := 0; k < clients; k++ {
		probs := dirichletVector(rng, classes, alpha)
		part := make([]int, 0, perClient)
		for len(part) < perClient {
			// Renormalise over classes that still have samples.
			var total float64
			for c, p := range pools {
				if len(p) > 0 {
					total += probs[c]
				}
			}
			if total == 0 {
				// This client's preferred classes are exhausted: fall
				// back to uniform over non-empty pools.
				for c := range probs {
					if len(pools[c]) > 0 {
						probs[c] = 1
						total++
					}
				}
				if total == 0 {
					break // dataset fully consumed (guarded by caller)
				}
			}
			u := rng.Float64() * total
			var acc float64
			for c, p := range pools {
				if len(p) == 0 {
					continue
				}
				acc += probs[c]
				if u <= acc {
					part = append(part, p[len(p)-1])
					pools[c] = p[:len(p)-1]
					break
				}
			}
		}
		parts[k] = part
	}
	return parts
}

// dirichletVector draws p ~ Dir(alpha, ..., alpha) via normalised Gamma
// samples.
func dirichletVector(rng Rand, n int, alpha float64) []float64 {
	p := make([]float64, n)
	var sum float64
	for i := range p {
		p[i] = gammaSample(rng, alpha)
		sum += p[i]
	}
	if sum == 0 {
		// Numerically possible for very small alpha: put all mass on one
		// random class, which is the alpha->0 limit anyway.
		p[rng.Intn(n)] = 1
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// gammaSample draws Gamma(shape=a, scale=1) by Marsaglia-Tsang, boosted for
// a < 1; products round explicitly (float64(x*y) + z): arm64 fuses none.
func gammaSample(rng Rand, a float64) float64 {
	if a < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, a+1) * math.Pow(u, 1/a)
	}
	d := a - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-float64(v)+math.Log(v))) {
			return d * v
		}
	}
}

// orthogonal partitions clients into clusters with disjoint class sets
// (classes distributed round-robin over clusters); within a cluster,
// clients sample IID from the cluster's classes.
func orthogonal(labels []int, classes, clients, perClient, clusters int, rng Rand) [][]int {
	pools := classPools(labels, classes, rng)
	clusterClasses := make([][]int, clusters)
	for c := 0; c < classes; c++ {
		g := c % clusters
		clusterClasses[g] = append(clusterClasses[g], c)
	}
	parts := make([][]int, clients)
	for k := 0; k < clients; k++ {
		own := clusterClasses[k%clusters]
		part := make([]int, 0, perClient)
		for len(part) < perClient {
			// Uniform over the cluster's non-empty classes.
			nonEmpty := own[:0:0]
			for _, c := range own {
				if len(pools[c]) > 0 {
					nonEmpty = append(nonEmpty, c)
				}
			}
			if len(nonEmpty) == 0 {
				// Cluster exhausted: borrow uniformly from any class so
				// every client still gets perClient samples.
				for c := range pools {
					if len(pools[c]) > 0 {
						nonEmpty = append(nonEmpty, c)
					}
				}
				if len(nonEmpty) == 0 {
					break
				}
			}
			c := nonEmpty[rng.Intn(len(nonEmpty))]
			p := pools[c]
			part = append(part, p[len(p)-1])
			pools[c] = p[:len(p)-1]
		}
		parts[k] = part
	}
	return parts
}

// LabelCounts computes the client x class count matrix used for the
// paper's Fig. 4 label-distribution plots.
func LabelCounts(parts [][]int, labels []int, classes int) [][]int {
	m := make([][]int, len(parts))
	for k, part := range parts {
		row := make([]int, classes)
		for _, i := range part {
			row[labels[i]]++
		}
		m[k] = row
	}
	return m
}

// EffectiveClasses returns, per client, how many classes have at least one
// sample — the summary statistic the paper quotes ("most clients contain
// 1 or 2 classes under Dir-0.1").
func EffectiveClasses(counts [][]int) []int {
	out := make([]int, len(counts))
	for k, row := range counts {
		n := 0
		for _, c := range row {
			if c > 0 {
				n++
			}
		}
		out[k] = n
	}
	return out
}
