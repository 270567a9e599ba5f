package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1000, 4096} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	// Chunks must tile [0,n) exactly once, with lo < hi.
	for _, n := range []int{1, 2, 255, 256, 257, 1024, 100000} {
		var total int64
		ForChunked(n, func(lo, hi int) {
			if lo >= hi || lo < 0 || hi > n {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != int64(n) {
			t.Fatalf("n=%d covered %d elements", n, total)
		}
	}
}

func TestForChunkedNegativeAndZero(t *testing.T) {
	called := false
	ForChunked(0, func(lo, hi int) { called = true })
	ForChunked(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn must not be called for n<=0")
	}
}

func TestMapOrdered(t *testing.T) {
	out := Map(1000, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d]=%d", i, v)
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// Property: parallel sum equals sequential sum for arbitrary slices.
func TestForSumProperty(t *testing.T) {
	f := func(xs []int64) bool {
		var par, seq int64
		For(len(xs), func(i int) { atomic.AddInt64(&par, xs[i]) })
		for _, x := range xs {
			seq += x
		}
		return par == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForChunkedMinCoversRange checks the custom-threshold variant visits
// every index exactly once, both below and above the threshold.
func TestForChunkedMinCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 300} {
		for _, minWork := range []int{1, 8, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			ForChunkedMin(n, minWork, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d minWork=%d: index %d visited %d times", n, minWork, i, c)
				}
			}
		}
	}
}

// TestSerialConsistentWithForChunkedMin pins the contract hot paths rely
// on: whenever Serial reports true, ForChunkedMin runs the body inline on
// the caller's goroutine as a single chunk.
func TestSerialConsistentWithForChunkedMin(t *testing.T) {
	for _, n := range []int{1, 10, 255, 256, 5000} {
		for _, minWork := range []int{1, 256, 10000} {
			if !Serial(n, minWork) {
				continue
			}
			calls := 0
			ForChunkedMin(n, minWork, func(lo, hi int) {
				calls++
				if lo != 0 || hi != n {
					t.Fatalf("Serial=true but chunk [%d,%d) != [0,%d)", lo, hi, n)
				}
			})
			if calls != 1 {
				t.Fatalf("Serial=true but %d chunks for n=%d", calls, n)
			}
		}
	}
}
