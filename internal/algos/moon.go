package algos

import (
	"math"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// MOON (Li, He, Song — CVPR 2021) is the model-contrastive representation
// method: the local loss gains
//
//	mu * l_con,  l_con = -log( exp(sim(z, z_glob)/tau) /
//	                          (exp(sim(z, z_glob)/tau) + exp(sim(z, z_prev)/tau)) )
//
// where z, z_glob, z_prev are the representations of the current batch
// under the local, global, and previous-local models, and sim is cosine
// similarity. Each batch therefore costs two extra forward passes (the
// (1+p)*FP attaching term of Appendix A with p=1 history model), which is
// what makes MOON resource-hungry relative to FedTrip.
//
// Without autograd, the gradient of l_con with respect to z is computed
// analytically here and injected at the representation boundary via the
// FeatureGradder hook.
type MOON struct {
	core.Base
	// Mu weights the contrastive term (paper: 1.0).
	Mu float64
	// Tau is the temperature (paper: 0.5).
	Tau float64
}

// Name implements core.Algorithm.
func (*MOON) Name() string { return "moon" }

// String renders the method with its hyperparameters (mu, tau).
func (m *MOON) String() string { return spec.T("moon", m.Mu, m.Tau).String() }

// BeginRound loads the global and previous-local parameters into the
// client's scratch models. At a client's first participation the previous
// model is the global model, under which the contrastive gradient is
// exactly zero (both similarities coincide) — matching MOON's init.
func (m *MOON) BeginRound(c *core.Client, round int, global []float64) {
	gm, pm := c.ScratchModels()
	gm.SetParams(global)
	if c.LastRound == 0 {
		pm.SetParams(global)
	} else {
		pm.SetParams(c.State(1))
	}
}

// EndRound keeps the client's previous-local model: the parameters it is
// about to upload, its one persistent row.
func (m *MOON) EndRound(c *core.Client, round int) {
	copy(c.State(1), c.Model().Params())
}

// FeatureGrad implements core.FeatureGradder: it runs the two extra
// forward passes and writes mu/N * d l_con/dz into out.
func (m *MOON) FeatureGrad(c *core.Client, x *tensor.Tensor, labels []int, features, out *tensor.Tensor) bool {
	gm, pm := c.ScratchModels()
	gm.Forward(x, false)
	pm.Forward(x, false)
	zg := gm.Features()
	zp := pm.Features()
	n, d := features.Dim(0), features.Dim(1)
	out.Zero()
	scale := m.Mu / float64(n)
	for i := 0; i < n; i++ {
		z := features.Data[i*d : (i+1)*d]
		g := zg.Data[i*d : (i+1)*d]
		p := zp.Data[i*d : (i+1)*d]
		o := out.Data[i*d : (i+1)*d]
		contrastiveGrad(z, g, p, m.Tau, scale, o)
	}
	// The gradient arithmetic itself is O(d) vector work; meter it like
	// the other attaching operations (the dominant 2x forward pass cost
	// was already metered by the scratch models).
	c.Counter.Add(int64(8 * n * d))
	return true
}

// ContrastiveLoss evaluates mu * mean l_con for a batch of representations
// (used by tests to finite-difference check contrastiveGrad).
func (m *MOON) ContrastiveLoss(z, zg, zp *tensor.Tensor) float64 {
	n, d := z.Dim(0), z.Dim(1)
	var sum float64
	for i := 0; i < n; i++ {
		zi := z.Data[i*d : (i+1)*d]
		gi := zg.Data[i*d : (i+1)*d]
		pi := zp.Data[i*d : (i+1)*d]
		sg := cosine(zi, gi) / m.Tau
		sp := cosine(zi, pi) / m.Tau
		mx := math.Max(sg, sp)
		sum += -sg + mx + math.Log(math.Exp(sg-mx)+math.Exp(sp-mx))
	}
	return m.Mu * sum / float64(n)
}

// contrastiveGrad writes scale * d l_con / dz into o for one sample.
func contrastiveGrad(z, zg, zp []float64, tau, scale float64, o []float64) {
	nz := tensor.Norm2(z)
	ng := tensor.Norm2(zg)
	np := tensor.Norm2(zp)
	const eps = 1e-12
	if nz < eps || ng < eps || np < eps {
		return // degenerate representation: no contrastive signal
	}
	cg := tensor.Dot(z, zg) / (nz * ng)
	cp := tensor.Dot(z, zp) / (nz * np)
	sg, sp := cg/tau, cp/tau
	// softmax over {sg, sp}, stable.
	mx := math.Max(sg, sp)
	eg := math.Exp(sg - mx)
	ep := math.Exp(sp - mx)
	sigG := eg / (eg + ep)
	sigP := ep / (eg + ep)
	// dl/dsg = sigG - 1, dl/dsp = sigP; ds/dcos = 1/tau.
	ag := (sigG - 1) / tau
	ap := sigP / tau
	// dcos(z,a)/dz = a/(|z||a|) - cos * z/|z|^2.
	for i := range o {
		dg := zg[i]/(nz*ng) - cg*z[i]/(nz*nz)
		dp := zp[i]/(nz*np) - cp*z[i]/(nz*nz)
		o[i] += float64(scale * (float64(ag*dg) + float64(ap*dp)))
	}
}

func cosine(a, b []float64) float64 {
	na, nb := tensor.Norm2(a), tensor.Norm2(b)
	if na < 1e-12 || nb < 1e-12 {
		return 0
	}
	return tensor.Dot(a, b) / (na * nb)
}
