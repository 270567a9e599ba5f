package algos

import (
	"math"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// FedGKD (Yao et al., 2021) aligns local and global representations via
// knowledge distillation: the received global model acts as the teacher,
// and the local loss gains
//
//	gamma * tau^2 * KL( softmax(z_T/tau) || softmax(z_S/tau) )
//
// over the batch, where z_T are the teacher's logits and z_S the student's
// (the local model). The gradient with respect to the student logits is
// gamma * tau * (p_S - p_T) / N, computed analytically and injected via
// the LogitGradder hook. Cost: one extra forward pass per batch (half of
// MOON's attaching cost).
type FedGKD struct {
	core.Base
	// Gamma weights the distillation term.
	Gamma float64
	// Tau is the distillation temperature.
	Tau float64
}

// Name implements core.Algorithm.
func (*FedGKD) Name() string { return "fedgkd" }

// String renders the method with its hyperparameters (gamma, tau).
func (f *FedGKD) String() string { return spec.T("fedgkd", f.Gamma, f.Tau).String() }

// BeginRound loads the teacher (the received global model) into a scratch
// model.
func (f *FedGKD) BeginRound(c *core.Client, round int, global []float64) {
	teacher, _ := c.ScratchModels()
	teacher.SetParams(global)
}

// LogitGrad adds the distillation gradient to dLogits.
func (f *FedGKD) LogitGrad(c *core.Client, x *tensor.Tensor, labels []int, logits, dLogits *tensor.Tensor) {
	teacher, _ := c.ScratchModels()
	zT := teacher.Forward(x, false) // extra FP metered on the client
	n, k := logits.Dim(0), logits.Dim(1)
	scale := f.Gamma * f.Tau / float64(n)
	pS := make([]float64, k)
	pT := make([]float64, k)
	for i := 0; i < n; i++ {
		softmaxInto(logits.Data[i*k:(i+1)*k], f.Tau, pS)
		softmaxInto(zT.Data[i*k:(i+1)*k], f.Tau, pT)
		drow := dLogits.Data[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			drow[j] += scale * (pS[j] - pT[j])
		}
	}
	c.Counter.Add(int64(6 * n * k))
}

// DistillLoss evaluates gamma * tau^2 * mean KL(p_T || p_S); tests
// finite-difference LogitGrad against it.
func (f *FedGKD) DistillLoss(student, teacher *tensor.Tensor) float64 {
	n, k := student.Dim(0), student.Dim(1)
	pS := make([]float64, k)
	pT := make([]float64, k)
	var sum float64
	for i := 0; i < n; i++ {
		softmaxInto(student.Data[i*k:(i+1)*k], f.Tau, pS)
		softmaxInto(teacher.Data[i*k:(i+1)*k], f.Tau, pT)
		for j := 0; j < k; j++ {
			if pT[j] > 0 {
				sum += pT[j] * (math.Log(pT[j]) - math.Log(pS[j]))
			}
		}
	}
	return f.Gamma * f.Tau * f.Tau * sum / float64(n)
}

// softmaxInto computes softmax(z/tau) into out, numerically stable.
func softmaxInto(z []float64, tau float64, out []float64) {
	maxv := math.Inf(-1)
	for _, v := range z {
		if v/tau > maxv {
			maxv = v / tau
		}
	}
	var sum float64
	for j, v := range z {
		out[j] = math.Exp(v/tau - maxv)
		sum += out[j]
	}
	for j := range out {
		out[j] /= sum
	}
}
