// Package flops meters floating-point work.
//
// It has two halves:
//
//   - A runtime Counter that hot kernels (matmul, conv, vector ops) add to.
//     The FL core threads one Counter per client so Table V's "total GFLOPs
//     of feedforward and attaching operations" can be measured rather than
//     guessed.
//
//   - The analytic attaching-cost model of the paper's Appendix A
//     (Table VIII): closed-form per-round FLOP and communication overhead of
//     each method's extra operations, parameterised by K (local iterations),
//     M (batch size), n (local samples), |w| (parameter count) and the
//     model's per-sample forward/backward cost.
package flops

import (
	"fmt"
	"sync/atomic"
)

// Counter accumulates floating-point operations. It is safe for concurrent
// use; hot loops should batch their adds (one Add per kernel call, not per
// scalar op).
type Counter struct {
	n atomic.Int64
}

// Add records n floating-point operations.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Total returns the operations recorded so far.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.n.Store(0)
}

// GFLOPs returns the total in units of 1e9 operations.
func (c *Counter) GFLOPs() float64 {
	return float64(c.Total()) / 1e9
}

// ModelCost is the analytic per-sample cost of one model, produced by
// internal/nn from the layer shapes (Table III).
type ModelCost struct {
	Params  int     // |w|: number of scalar parameters
	Forward float64 // FP: FLOPs for one sample's forward pass
	// Backward is the backprop cost for one sample. The standard
	// approximation (used by the paper implicitly via "FP+BP") is
	// Backward ~= 2*Forward.
	Backward float64
}

// CommBytesFloat64 returns the bytes needed to ship the parameters once at
// float64 precision (this library's native precision).
func (m ModelCost) CommBytesFloat64() int64 { return int64(m.Params) * 8 }

// CommBytesFloat32 returns the bytes for float32 transport, matching the
// paper's Table III "Communication (MB)" column (PyTorch ships float32).
func (m ModelCost) CommBytesFloat32() int64 { return int64(m.Params) * 4 }

// RoundParams parameterises Appendix A's per-round attaching-cost formulas.
type RoundParams struct {
	K int // local iterations per round (batches per epoch x epochs)
	M int // batch size
	N int // local data samples at the client
	P int // number of historical models MOON keeps (paper uses 1)
}

// MethodCost is one row of Table VIII: the extra work a method performs on
// top of plain FedAvg local SGD, per communication round per client.
type MethodCost struct {
	Method string
	// AttachFLOPs is the FLOP count of the method's attaching operations.
	AttachFLOPs float64
	// ExtraCommFactor is the additional communication volume in units of
	// |w| transfers (FedAvg's own 2|w| up+down is the baseline and not
	// counted). SCAFFOLD and MimeLite ship an extra 2|w|.
	ExtraCommFactor float64
}

// AttachCost returns the Appendix A analytic cost for the named method.
// Method names follow the package algos registry: "fedavg", "fedprox",
// "fedtrip", "moon", "feddyn", "slowmo", "scaffold", "feddane", "mimelite".
func AttachCost(method string, mc ModelCost, rp RoundParams) (MethodCost, error) {
	k := float64(rp.K)
	m := float64(rp.M)
	n := float64(rp.N)
	w := float64(mc.Params)
	fp := mc.Forward
	bp := mc.Backward
	p := float64(rp.P)
	if p == 0 {
		p = 1
	}
	switch method {
	case "fedavg":
		return MethodCost{Method: method}, nil
	case "fedprox":
		// mu*(w - w_global): one subtract + one axpy over |w|, K times.
		return MethodCost{Method: method, AttachFLOPs: 2 * k * w}, nil
	case "fedtrip":
		// (w - w_global) and xi*(w_hist - w): two subtracts + two axpys.
		return MethodCost{Method: method, AttachFLOPs: 4 * k * w}, nil
	case "feddyn":
		// -h_k + alpha*(w - w_global): same vector-op count as FedTrip.
		return MethodCost{Method: method, AttachFLOPs: 4 * k * w}, nil
	case "slowmo":
		// Server-side slow momentum: 4|w| per round, independent of K.
		return MethodCost{Method: method, AttachFLOPs: 4 * w}, nil
	case "moon":
		// (1+p) extra forward passes per batch element, K batches of M.
		return MethodCost{Method: method, AttachFLOPs: k * m * (1 + p) * fp}, nil
	case "scaffold":
		// 2(K+1)|w| control-variate math + full-batch gradient n(FP+BP),
		// plus 2|w| extra communication (c up and down).
		return MethodCost{Method: method, AttachFLOPs: 2*(k+1)*w + n*(fp+bp), ExtraCommFactor: 2}, nil
	case "feddane":
		// Gradient-correction term: 2K|w| vector ops + one full-batch
		// gradient n(FP+BP), plus an extra gradient exchange 2|w|.
		return MethodCost{Method: method, AttachFLOPs: 2*k*w + n*(fp+bp), ExtraCommFactor: 2}, nil
	case "mimelite":
		// Full-batch gradient at the received model: n(FP+BP); server
		// optimizer state shipped both ways: 2|w|.
		return MethodCost{Method: method, AttachFLOPs: n * (fp + bp), ExtraCommFactor: 2}, nil
	case "fedgkd":
		// One teacher forward pass per batch element (half of MOON's
		// (1+p) passes).
		return MethodCost{Method: method, AttachFLOPs: k * m * fp}, nil
	case "fednova":
		// Server-side normalised averaging: ~4|w| per round.
		return MethodCost{Method: method, AttachFLOPs: 4 * w}, nil
	}
	return MethodCost{}, fmt.Errorf("flops: unknown method %q", method)
}

// TrainFLOPsPerRound returns the analytic total FLOPs one client spends in
// one communication round: K batches of M samples through forward+backward,
// plus the method's attaching operations.
func TrainFLOPsPerRound(method string, mc ModelCost, rp RoundParams) (float64, error) {
	att, err := AttachCost(method, mc, rp)
	if err != nil {
		return 0, err
	}
	base := float64(rp.K) * float64(rp.M) * (mc.Forward + mc.Backward)
	return base + att.AttachFLOPs, nil
}
