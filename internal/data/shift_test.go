package data

import (
	"math/rand"
	"testing"
)

func TestShiftIntoTranslation(t *testing.T) {
	// 1-channel 3x3 image with a single hot pixel at (1,1).
	src := []float64{
		0, 0, 0,
		0, 5, 0,
		0, 0, 0,
	}
	dst := make([]float64, 9)
	refShiftInto(dst, src, 1, 3, 3, 1, 0, 2) // shift right by 1, amp 2
	want := []float64{
		0, 0, 0,
		0, 0, 10,
		0, 0, 0,
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst=%v want %v", dst, want)
		}
	}
}

func TestShiftIntoZeroPadsEdges(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	refShiftInto(dst, src, 1, 2, 2, 1, 1, 1) // shift down-right by 1
	// Only src(0,0) survives at dst(1,1); the rest is zero-padded.
	want := []float64{0, 0, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst=%v want %v", dst, want)
		}
	}
}

func TestShiftIntoMultiChannel(t *testing.T) {
	// 2 channels of 2x2; channels shift independently but identically.
	src := []float64{
		1, 0, 0, 0, // channel 0: hot at (0,0)
		0, 0, 0, 2, // channel 1: hot at (1,1)
	}
	dst := make([]float64, 8)
	refShiftInto(dst, src, 2, 2, 2, 1, 0, 1) // shift right by 1
	if dst[1] != 1 {                         // channel 0 pixel moved to (0,1)
		t.Fatalf("channel 0: %v", dst[:4])
	}
	if dst[4+3] != 0 { // channel 1 (1,1) pushed out of bounds
		t.Fatalf("channel 1: %v", dst[4:])
	}
}

func TestSmoothFieldDimensions(t *testing.T) {
	rngField := smoothField(newTestRng(), 3, 8, 9)
	if len(rngField) != 3*8*9 {
		t.Fatalf("field len %d", len(rngField))
	}
	// Smoothness: neighbouring pixels correlate far more than distant
	// ones (the field is a bilinear upsample of a 7x7 grid).
	var adjDiff, farDiff float64
	var nAdj, nFar int
	for y := 0; y < 8; y++ {
		for x := 0; x+1 < 9; x++ {
			d := rngField[y*9+x] - rngField[y*9+x+1]
			adjDiff += d * d
			nAdj++
		}
	}
	for y := 0; y < 8; y++ {
		d := rngField[y*9] - rngField[y*9+8]
		farDiff += d * d
		nFar++
	}
	if adjDiff/float64(nAdj) >= farDiff/float64(nFar) {
		t.Fatal("field not smooth: adjacent pixels differ as much as distant ones")
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(99)) }
