// Package optim provides the local optimizers the paper uses: plain SGD
// and SGD with momentum (SGDm). Optimizers operate on the flat parameter
// and gradient vectors exposed by internal/nn, i.e. they are the U(.) in
// Algorithm 1 line 8: w <- w - alpha * U(h).
package optim

import (
	"fmt"

	"repro/internal/tensor"
)

// Optimizer updates a parameter vector in place from a gradient vector.
type Optimizer interface {
	// Step applies one update: w <- w - lr * U(g). Implementations may
	// keep state (momentum buffers) sized to len(w) on first use.
	Step(w, g []float64)
	// Reset clears internal state (called when a client receives a fresh
	// global model at the start of a round). Because every local round
	// begins with Reset, optimizer state never crosses a round boundary —
	// the invariant that lets core run snapshots, which are taken at
	// round boundaries, omit optimizer state entirely.
	Reset()
	// Name identifies the optimizer for logging.
	Name() string
	// HeldBytes is what the optimizer's state holds, from capacities.
	HeldBytes() int64
}

// Stateful is the optional inspection interface for optimizers that keep
// per-parameter slot state between Steps. Slots returns a copy of each
// named slot; a fresh or Reset optimizer reports all-zero (or empty)
// slots.
type Stateful interface {
	Slots() map[string][]float64
}

// SGD is vanilla stochastic gradient descent.
type SGD struct {
	LR float64
}

// NewSGD returns plain SGD with the given learning rate.
func NewSGD(lr float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: non-positive learning rate %v", lr))
	}
	return &SGD{LR: lr}
}

func (o *SGD) Step(w, g []float64) {
	tensor.Axpy(-o.LR, g, w)
}

func (o *SGD) Reset()           {}
func (o *SGD) Name() string     { return "sgd" }
func (o *SGD) HeldBytes() int64 { return 0 }

// SGDMomentum is SGD with (non-Nesterov) momentum, the paper's default
// local optimizer ("SGDm", lr 0.01, momentum 0.9).
type SGDMomentum struct {
	LR       float64
	Momentum float64
	buf      []float64
}

// NewSGDMomentum returns SGD with momentum.
func NewSGDMomentum(lr, momentum float64) *SGDMomentum {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: non-positive learning rate %v", lr))
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("optim: momentum %v outside [0,1)", momentum))
	}
	return &SGDMomentum{LR: lr, Momentum: momentum}
}

func (o *SGDMomentum) Step(w, g []float64) {
	if len(o.buf) != len(w) {
		o.buf = make([]float64, len(w))
	}
	m := o.Momentum
	for i := range o.buf {
		o.buf[i] = float64(m*o.buf[i]) + g[i]
	}
	tensor.Axpy(-o.LR, o.buf, w)
}

func (o *SGDMomentum) Reset() {
	tensor.ZeroVec(o.buf)
}

func (o *SGDMomentum) Name() string { return "sgdm" }

func (o *SGDMomentum) HeldBytes() int64 { return 8 * int64(cap(o.buf)) }

// Slots exposes the momentum buffer for inspection (Stateful). The
// returned slice is a copy; before the first Step it is empty.
func (o *SGDMomentum) Slots() map[string][]float64 {
	buf := make([]float64, len(o.buf))
	copy(buf, o.buf)
	return map[string][]float64{"momentum": buf}
}
