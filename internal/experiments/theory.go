package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
	"repro/internal/tensor"
)

// runTheoryRho empirically grounds Theorem 1's convergence condition. The
// theorem's decrease coefficient (with exact local solves, gamma = 0) is
//
//	rho = 1/mu - L*B/mu^2 - L*B^2/(2*mu^2)
//
// where L is the smoothness constant of the local losses (Assumption 1)
// and B bounds the gradient dissimilarity ||grad F_k|| <= B ||grad f||
// (Assumption 2). The experiment estimates L and B on the actual
// synthetic task at several points along a training trajectory, then
// reports rho for the paper's mu choices — positive rho is the paper's
// sufficient condition for per-round objective decrease.
func runTheoryRho(p Profile, logf Logf) ([]*Table, error) {
	// Collect global-model snapshots along a short FedAvg trajectory so
	// the constants are measured where training actually happens. The
	// trajectory run is a table cell, so the profile's runtime selection
	// reaches it; the snapshot hook rides along as OnRound. The FullGrad
	// probes below are measurement, not a run — they read client data
	// through a bare server.
	c := p.cell(data.KindMNIST, nn.ArchMLP, partition.Dirichlet(0.5), "fedavg", runtext.Selection{})
	c.Rounds = min(p.Rounds, 10)
	rspec, err := c.RunSpec()
	if err != nil {
		return nil, err
	}
	var snapshots [][]float64
	rspec.OnRound = func(round int, s *core.Server) {
		if round%2 == 1 {
			snapshots = append(snapshots, append([]float64(nil), s.Global()...))
		}
	}
	logf.printf("theory-rho: collecting trajectory snapshots of fedtrip %s", c.Line())
	if _, err := core.Start(rspec); err != nil {
		return nil, err
	}
	srv, err := core.NewServer(rspec.Config)
	if err != nil {
		return nil, err
	}

	// Estimate L: max over snapshot pairs and clients of
	// ||grad F_k(w1) - grad F_k(w2)|| / ||w1 - w2||.
	// Estimate B: max over snapshots and clients of
	// ||grad F_k(w)|| / ||grad f(w)||.
	var lEst, bEst float64
	probes := 0
	clients := srv.Clients()
	for si, w := range snapshots {
		grads := make([][]float64, len(clients))
		mean := make([]float64, len(w))
		for k, c := range clients {
			grads[k] = c.FullGrad(w)
			tensor.Axpy(1/float64(len(clients)), grads[k], mean)
		}
		gNorm := tensor.Norm2(mean)
		for _, gk := range grads {
			if gNorm > 1e-12 {
				if r := tensor.Norm2(gk) / gNorm; r > bEst {
					bEst = r
				}
			}
		}
		if si+1 < len(snapshots) {
			w2 := snapshots[si+1]
			dw := math.Sqrt(tensor.DistSq(w, w2))
			if dw > 1e-12 {
				for k, c := range clients {
					g2 := c.FullGrad(w2)
					dg := math.Sqrt(tensor.DistSq(grads[k], g2))
					if r := dg / dw; r > lEst {
						lEst = r
					}
				}
			}
		}
		probes++
	}

	t := &Table{
		ID: "theory-rho",
		Title: fmt.Sprintf("Theorem 1 constants on the synthetic task (MLP/MNIST Dir-0.5, %d snapshots): L=%.3f, B=%.3f",
			probes, lEst, bEst),
		Headers: []string{"mu", "rho = 1/mu - LB/mu^2 - LB^2/(2mu^2)", "decrease guaranteed"},
	}
	for _, mu := range []float64{0.4, 1.0, 2.0, 4.0, 6 * lEst * bEst * bEst} {
		rho := 1/mu - lEst*bEst/(mu*mu) - lEst*bEst*bEst/(2*mu*mu)
		t.AddRow(fmt.Sprintf("%.3g", mu), fmt.Sprintf("%.5f", rho), yesNo(rho > 0))
	}
	t.Notes = append(t.Notes,
		"L and B are empirical maxima over trajectory snapshots (lower bounds on the true constants)",
		"the paper instantiates mu = 6LB^2 as an example choice that guarantees rho > 0",
		fmt.Sprintf("with these estimates, 6LB^2 = %.3g", 6*lEst*bEst*bEst))
	return []*Table{t}, nil
}

// rhoOf exposes the Theorem 1 coefficient for tests.
func rhoOf(mu, l, b float64) float64 {
	return 1/mu - l*b/(mu*mu) - l*b*b/(2*mu*mu)
}
