package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits [N, C] against integer labels, and, if dLogits is
// non-nil, writes the mean-reduced gradient dL/dlogits into it (shape
// [N, C]). The computation is the numerically stable log-sum-exp form.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int, dLogits *tensor.Tensor) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	if dLogits != nil && (dLogits.Dim(0) != n || dLogits.Dim(1) != c) {
		panic("nn: dLogits shape mismatch")
	}
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d outside [0,%d)", y, c))
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logZ := maxv + math.Log(sum)
		loss += logZ - row[y]
		if dLogits != nil {
			drow := dLogits.Data[i*c : (i+1)*c]
			for j, v := range row {
				p := math.Exp(v-maxv) / sum
				if j == y {
					drow[j] = (p - 1) * inv
				} else {
					drow[j] = p * inv
				}
			}
		}
	}
	return loss * inv
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	return float64(Correct(logits, labels)) / float64(logits.Dim(0))
}

// Correct returns the number of rows whose argmax matches the label.
func Correct(logits *tensor.Tensor, labels []int) int {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best := 0
		for j := 1; j < c; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return correct
}
