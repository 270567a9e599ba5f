package runtext

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// Task is the task half of a run in text form — what is learned, on what
// data, split how, by which method, for how long — as the 21 flags Register
// binds. Config is the one place outside the experiment harness and the
// benchmark where the paper's recipe (§V.A) is assembled.
type Task struct {
	Algo, Dataset, Model, Scheme string
	Alpha                        float64
	Clusters                     int
	Clients, K, Samples, Test    int
	Rounds, Batch, Epochs        int
	LR, Momentum, Mu             float64
	Scale, Target                float64
	Seed                         int64
	Clip                         float64
	Shards                       int
}

// Register binds the task to its command-line flags with the paper's
// defaults (N=10, K=4, SGDm 0.01/0.9, CNN on MNIST under Dir-0.5).
func (t *Task) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Algo, "algo", "fedtrip", "method: "+strings.Join(algos.Names(), "|"))
	fs.StringVar(&t.Dataset, "dataset", "mnist", "dataset: mnist|fmnist|emnist|cifar")
	fs.StringVar(&t.Model, "model", "cnn", "model: mlp|cnn|alexnet")
	fs.StringVar(&t.Scheme, "scheme", "dir", "partition: iid|dir|orthogonal")
	fs.Float64Var(&t.Alpha, "alpha", 0.5, "Dirichlet concentration (scheme=dir)")
	fs.IntVar(&t.Clusters, "clusters", 5, "orthogonal clusters (scheme=orthogonal)")
	fs.IntVar(&t.Clients, "clients", 10, "client population N")
	fs.IntVar(&t.K, "k", 4, "clients selected per round K")
	fs.IntVar(&t.Samples, "samples", 120, "training samples per client")
	fs.IntVar(&t.Test, "test", 400, "test samples")
	fs.IntVar(&t.Rounds, "rounds", 30, "communication rounds")
	fs.IntVar(&t.Batch, "batch", 10, "local batch size")
	fs.IntVar(&t.Epochs, "epochs", 1, "local epochs per round")
	fs.Float64Var(&t.LR, "lr", 0.01, "learning rate")
	fs.Float64Var(&t.Momentum, "momentum", 0.9, "SGDm momentum")
	fs.Float64Var(&t.Mu, "mu", 0, "regularization mu (0 = paper default)")
	fs.Float64Var(&t.Scale, "scale", 0.5, "model width scale (1 = paper size)")
	fs.Float64Var(&t.Target, "target", 0, "target accuracy for rounds-to-target (0 = off)")
	fs.Int64Var(&t.Seed, "seed", 1, "random seed")
	fs.Float64Var(&t.Clip, "clip", 0, "gradient clip norm (0 = off)")
	fs.IntVar(&t.Shards, "shards", 0, "worker shards training runs on; each owns one model-sized engine (0 = one per CPU)")
}

// Partition resolves -scheme with its -alpha or -clusters argument.
func (t Task) Partition() (partition.Scheme, error) {
	switch t.Scheme {
	case "iid":
		return partition.IID(), nil
	case "dir":
		return partition.Dirichlet(t.Alpha), nil
	case "orthogonal":
		return partition.Orthogonal(t.Clusters), nil
	}
	return partition.Scheme{}, fmt.Errorf("unknown scheme %q (known: iid|dir|orthogonal)", t.Scheme)
}

// Config assembles the run's base configuration. Every unknown name is
// reported in one error, before any data is generated. The one Seed feeds
// the corpus, the partition (rand.NewSource(Seed)) and the run.
func (t Task) Config() (core.Config, error) {
	kind := data.Kind(t.Dataset)
	st, kindErr := data.TableII(kind)
	scheme, schemeErr := t.Partition()
	algo, algoErr := algos.New(t.Algo, algos.Params{Mu: t.Mu})
	model := nn.ModelSpec{
		Arch: nn.Arch(t.Model), Channels: st.Channels,
		Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: t.Scale,
	}
	var modelErr error
	switch model.Arch {
	case nn.ArchMLP, nn.ArchCNN, nn.ArchAlexNet:
	default:
		modelErr = fmt.Errorf("unknown model %q (known: mlp|cnn|alexnet)", t.Model)
	}
	if err := errors.Join(kindErr, modelErr, schemeErr, algoErr); err != nil {
		return core.Config{}, err
	}
	train, test, err := data.Generate(data.Spec{Kind: kind, Train: t.Clients * t.Samples, Test: t.Test, Seed: t.Seed})
	if err != nil {
		return core.Config{}, err
	}
	parts, err := partition.Partition(scheme, train.Y, train.Classes, t.Clients, t.Samples, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Model: model,
		Train: train, Test: test, Parts: parts,
		Rounds: t.Rounds, ClientsPerRound: t.K,
		BatchSize: t.Batch, LocalEpochs: t.Epochs,
		LR: t.LR, Momentum: t.Momentum, ClipNorm: t.Clip,
		Algo: algo, Seed: t.Seed,
		TargetAccuracy: t.Target,
		Shards:         t.Shards,
	}, nil
}

// Command is the run a fedtrip command line describes: the task, the
// runtime selection, and the flag fedtrip adds to the shared selection.
type Command struct {
	Task
	Selection
	// FlopRate is a speed-1.0 device's throughput in GFLOPs/s (0 = 1).
	FlopRate float64
}

// Register binds the whole command to fs. -latency defaults to the
// explicit "zero" here, as it always has on fedtrip.
func (c *Command) Register(fs *flag.FlagSet) {
	c.Latency = "zero"
	c.Task.Register(fs)
	c.Selection.Register(fs)
	fs.Float64Var(&c.FlopRate, "flop-rate", 0, "device mode: GFLOPs/s of a speed-1.0 device (0 = 1)")
}

// RunSpec assembles and validates the run. A malformed task and a
// malformed selection are reported together.
func (c Command) RunSpec() (core.RunSpec, error) {
	cfg, taskErr := c.Task.Config()
	rs, selErr := c.Selection.Parse(cfg)
	if err := errors.Join(taskErr, selErr); err != nil {
		return rs, err
	}
	// Attached whether or not a fleet is configured: a -flop-rate without
	// -device-dist must hit Validate's rejection, not pass as a no-op.
	rs.FlopRate = c.FlopRate * 1e9
	return rs, rs.Validate()
}

// FromLine turns the run flags of a fedtrip command line — the text after
// the program name, minus the flags that only steer the program (-quiet,
// -digest, -checkpoint, ...) — into a validated RunSpec. Each call builds
// a fresh run: transports and methods carry state.
func FromLine(line string) (core.RunSpec, error) {
	var c Command
	fs := flag.NewFlagSet("fedtrip", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(strings.Fields(line)); err != nil {
		return core.RunSpec{}, err
	}
	if fs.NArg() > 0 {
		return core.RunSpec{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return c.RunSpec()
}
