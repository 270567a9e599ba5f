// Command fedtrip-sweep sweeps one hyperparameter of one method over a
// list of values and reports best/final accuracy and rounds-to-target for
// each, on a fixed federated task. It generalises the paper's Fig. 7
// (mu sensitivity) to any method/parameter pair:
//
//	fedtrip-sweep -algo fedtrip -param mu -values 0.1,0.4,1.0,2.5
//	fedtrip-sweep -algo moon   -param tau -values 0.1,0.5,1.0
//	fedtrip-sweep -algo feddyn -param alpha -values 0.01,0.1,1.0
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/stats"
)

func main() {
	var (
		algoName = flag.String("algo", "fedtrip", "method to sweep")
		param    = flag.String("param", "mu", "hyperparameter: mu|tau|alpha|beta|slowlr")
		values   = flag.String("values", "0.1,0.4,0.8,1.5,2.5", "comma-separated values")
		dataset  = flag.String("dataset", "mnist", "dataset kind")
		model    = flag.String("model", "cnn", "model architecture")
		alpha    = flag.Float64("dir", 0.5, "Dirichlet alpha of the data partition")
		clients  = flag.Int("clients", 10, "client population")
		perRound = flag.Int("k", 4, "clients per round")
		samples  = flag.Int("samples", 100, "samples per client")
		rounds   = flag.Int("rounds", 30, "communication rounds")
		batch    = flag.Int("batch", 10, "batch size")
		scale    = flag.Float64("scale", 0.5, "model width scale")
		seed     = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()
	if err := run(*algoName, *param, *values, *dataset, *model, *alpha,
		*clients, *perRound, *samples, *rounds, *batch, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "fedtrip-sweep:", err)
		os.Exit(1)
	}
}

func run(algoName, param, values, dataset, model string, dirAlpha float64,
	clients, perRound, samples, rounds, batch int, scale float64, seed int64) error {

	kind := data.Kind(dataset)
	st, err := data.TableII(kind)
	if err != nil {
		return err
	}
	train, test, err := data.Generate(data.Spec{Kind: kind, Train: clients * samples, Test: 400, Seed: seed})
	if err != nil {
		return err
	}
	parts, err := partition.Partition(partition.Dirichlet(dirAlpha), train.Y, train.Classes, clients, samples, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	spec := nn.ModelSpec{Arch: nn.Arch(model), Channels: st.Channels, Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: scale}

	runOne := func(p algos.Params) (*core.Result, error) {
		algo, err := algos.New(algoName, p)
		if err != nil {
			return nil, err
		}
		return core.Start(core.RunSpec{Config: core.Config{
			Model: spec, Train: train, Test: test, Parts: parts,
			Rounds: rounds, ClientsPerRound: perRound, BatchSize: batch,
			LocalEpochs: 1, LR: 0.01, Momentum: 0.9, Algo: algo, Seed: seed,
		}})
	}

	// FedAvg reference fixes the rounds-to-target bar.
	ref, err := runOne(algos.Params{})
	if err != nil {
		return err
	}
	target := 0.97 * ref.FinalAccuracy

	fmt.Printf("sweep %s.%s on %s/%s Dir-%g (%d-of-%d, %d rounds), target %.4f\n\n",
		algoName, param, model, dataset, dirAlpha, perRound, clients, rounds, target)
	fmt.Printf("%-8s  %-9s  %-9s  %s\n", param, "best", "final", "rounds-to-target")
	for _, vs := range strings.Split(values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", vs, err)
		}
		var p algos.Params
		switch param {
		case "mu":
			p.Mu = v
		case "tau":
			p.Tau = v
		case "alpha":
			p.Alpha = v
		case "beta":
			p.Beta = v
		case "slowlr":
			p.SlowLR = v
		default:
			return fmt.Errorf("unknown param %q", param)
		}
		res, err := runOne(p)
		if err != nil {
			return err
		}
		rt := stats.RoundsToTarget(res.Accuracy, target)
		rtStr := fmt.Sprintf("%d", rt)
		if rt < 0 {
			rtStr = fmt.Sprintf(">%d", rounds)
		}
		fmt.Printf("%-8.3g  %-9.4f  %-9.4f  %s\n", v, res.BestAccuracy, res.FinalAccuracy, rtStr)
	}
	return nil
}
