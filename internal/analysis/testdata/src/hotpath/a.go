package hotpath

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// step is annotated hot: every allocating construct is flagged.
//
//fedtripvet:hotpath
func step(buf []float64, xs []float64) []float64 {
	fmt.Println("tick")        // want "fmt.Println on the hot path"
	m := make(map[int]float64) // want "make\\(map\\) on the hot path"
	_ = m
	var fns []func()
	for i, x := range xs {
		buf = append(buf, x)                // want "append on the hot path"
		fns = append(fns, func() { _ = i }) // want "append on the hot path" "closure captures loop variable i"
	}
	for _, fn := range fns {
		fn()
	}
	lut := map[string]int{} // want "map literal on the hot path"
	_ = lut
	return buf
}

// cold is not annotated: anything goes.
func cold(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x)
	}
	fmt.Println(len(out))
	return out
}

// pooled appends into a caller-ensured buffer under an allow.
//
//fedtripvet:hotpath
func pooled(buf []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		buf = append(buf, float64(i)) //fedtripvet:allow fixture: capacity ensured by the caller
	}
	return buf
}

// roundTrip marshals to simulate a cast: a fresh vector and a fresh
// buffer per call.
//
//fedtripvet:hotpath
func roundTrip(w io.Writer, v []float64) []float64 {
	out := make([]float64, len(v)) // want "make of a slice with a non-constant size"
	var buf bytes.Buffer           // want "bytes.Buffer on the hot path"
	buf.WriteByte(byte(len(v)))
	_ = new(bytes.Buffer)             // want "bytes.Buffer on the hot path"
	_ = bytes.NewBuffer(nil)          // want "bytes.NewBuffer on the hot path"
	bw := bufio.NewWriter(w)          // want "bufio.NewWriter on the hot path"
	head := make([]byte, 8)           // a constant size can stay on the stack
	grown := make([]int, 0, cap(out)) // want "make of a slice with a non-constant size"
	_, _, _ = bw, head, grown
	return out
}

// residual allocates a client's first-participation state under an allow.
//
//fedtripvet:hotpath
func residual(state map[int][]float64, id, n int) []float64 {
	r := state[id]
	if r == nil {
		r = make([]float64, n) //fedtripvet:allow fixture: first participation, retained as the client's state
		state[id] = r
	}
	return r
}
