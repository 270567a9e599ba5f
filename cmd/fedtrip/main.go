// Command fedtrip runs a single federated-learning experiment and prints
// per-round progress plus a summary. It is the quickest way to try the
// library:
//
//	fedtrip -algo fedtrip -dataset mnist -model cnn -scheme dir -alpha 0.5 -rounds 30
//
// All methods from the paper are available via -algo: fedtrip, fedavg,
// fedprox, slowmo, moon, feddyn, scaffold, feddane, mimelite.
//
// The runtime selection — -runtime, -latency, -policy, -server-lr,
// -concurrency, -buffer, -device-dist, -dropout, -local-steps-adaptive,
// -transport, -bandwidth-dist, -faults — is the flag set
// internal/runtext registers for this command and for fedtrip-tables
// alike; every value is written in the one spec grammar (internal/spec:
// name[:a,b,...] terms composed with "+"; README "One run API" has the
// table, -h the per-flag vocabulary). This command adds -async (shorthand
// for -runtime async), -wire (shorthand for -transport f32), -stale-exp
// (the default staleness discount) and -flop-rate (device throughput):
//
//	fedtrip -algo fedtrip -runtime async -latency straggler:1,10,5 -buffer 2 -rounds 60
//	fedtrip -algo fedtrip -runtime async -latency exp:2 -policy fedasync:0.6 -rounds 60
//	fedtrip -algo fedavg -runtime barrier -latency straggler:1,10,5 -rounds 30
//	fedtrip -algo fedtrip -runtime async -device-dist lognormal:0,0.6 \
//	        -local-steps-adaptive -dropout markov:90,10 \
//	        -policy fedbuff+maxstale:8 -rounds 60
//	fedtrip -algo fedtrip -runtime async -device-dist tiered \
//	        -bandwidth-dist tiered -transport topk:0.01+ef -rounds 60
//	fedtrip -algo fedtrip -runtime async -faults byz:0.2,signflip \
//	        -policy trimmedmean:0.25 -rounds 60
//
// With a device fleet each dispatch's duration is its metered FLOPs over
// the device's throughput; with a bandwidth distribution it additionally
// pays rtt + bytes/bandwidth for the bytes its transport actually moved,
// so compression genuinely buys simulated time; faulty clients still pay
// FLOPs and wire bytes, and non-finite uploads are always rejected and
// counted, never merged.
//
// Population scale is set with -clients and the real parallelism (and
// memory: one model-sized training engine per shard) with -shards; the
// two are independent, so a 10k-client fleet runs on a laptop:
//
//	fedtrip -async -clients 10000 -samples 6 -concurrency 256 -buffer 64 \
//	        -latency straggler:1,10,7 -rounds 30
//
// Long runs are serializable: -checkpoint arms graceful shutdown (SIGTERM
// writes a run snapshot at the next round boundary), -snapshot-at writes
// one mid-run, and -resume continues a snapshot bit-for-bit — the
// resumed trajectory is identical to never having stopped (-digest
// prints the fingerprint that proves it). -serve exposes the live run
// over HTTP instead:
//
//	fedtrip -rounds 200 -checkpoint run.ckpt        # SIGTERM-safe
//	fedtrip -rounds 200 -resume run.ckpt -checkpoint run.ckpt
//	fedtrip -rounds 200 -serve :8080                # GET /status /metrics /trace /checkpoint
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/algos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runserver"
	"repro/internal/runtext"
	"repro/internal/trace"
)

func main() {
	// -latency has always defaulted to the explicit "zero" here.
	o := runOpts{Selection: runtext.Selection{Latency: "zero"}}
	flag.StringVar(&o.algoName, "algo", "fedtrip", "method: fedtrip|fedavg|fedprox|slowmo|moon|feddyn|scaffold|feddane|mimelite")
	flag.StringVar(&o.dataset, "dataset", "mnist", "dataset: mnist|fmnist|emnist|cifar")
	flag.StringVar(&o.model, "model", "cnn", "model: mlp|cnn|alexnet")
	flag.StringVar(&o.schemeStr, "scheme", "dir", "partition: iid|dir|orthogonal")
	flag.Float64Var(&o.alpha, "alpha", 0.5, "Dirichlet concentration (scheme=dir)")
	flag.IntVar(&o.clusters, "clusters", 5, "orthogonal clusters (scheme=orthogonal)")
	flag.IntVar(&o.clients, "clients", 10, "client population N")
	flag.IntVar(&o.perRound, "k", 4, "clients selected per round K")
	flag.IntVar(&o.samples, "samples", 120, "training samples per client")
	flag.IntVar(&o.testN, "test", 400, "test samples")
	flag.IntVar(&o.rounds, "rounds", 30, "communication rounds")
	flag.IntVar(&o.batch, "batch", 10, "local batch size")
	flag.IntVar(&o.epochs, "epochs", 1, "local epochs per round")
	flag.Float64Var(&o.lr, "lr", 0.01, "learning rate")
	flag.Float64Var(&o.momentum, "momentum", 0.9, "SGDm momentum")
	flag.Float64Var(&o.mu, "mu", 0, "regularization mu (0 = paper default)")
	flag.Float64Var(&o.scale, "scale", 0.5, "model width scale (1 = paper size)")
	flag.Float64Var(&o.target, "target", 0, "target accuracy for rounds-to-target (0 = off)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-round lines")
	flag.Float64Var(&o.clip, "clip", 0, "gradient clip norm (0 = off)")
	flag.StringVar(&o.savePath, "save", "", "write the final global model checkpoint to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write per-client round telemetry CSV to this file")
	flag.IntVar(&o.shards, "shards", 0, "worker shards training runs on; each owns one model-sized engine (0 = one per CPU)")
	o.Selection.Register(flag.CommandLine)
	flag.BoolVar(&o.wire, "wire", false, "shorthand for -transport f32")
	flag.BoolVar(&o.async, "async", false, "shorthand for -runtime async")
	flag.Float64Var(&o.staleExp, "stale-exp", 0.5, "async: polynomial staleness discount exponent (0 = no discount)")
	flag.Float64Var(&o.flopRate, "flop-rate", 0, "device mode: GFLOPs/s of a speed-1.0 device (0 = 1)")
	flag.StringVar(&o.serve, "serve", "", "run behind an HTTP run-server on this address (GET /status /metrics /trace /checkpoint)")
	flag.StringVar(&o.resumeCk, "resume", "", "resume the run snapshot at this path (flags must rebuild the same run)")
	flag.StringVar(&o.checkCk, "checkpoint", "", "write a run snapshot to this path: on SIGTERM/SIGINT (graceful stop) and at -snapshot-at")
	flag.IntVar(&o.snapAt, "snapshot-at", 0, "write -checkpoint after this many completed rounds and keep going (0 = off)")
	flag.BoolVar(&o.digest, "digest", false, "print the run digest (bit-for-bit trajectory fingerprint; resume must reproduce it)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fedtrip:", err)
		os.Exit(1)
	}
}

// runOpts is the parsed command line: the shared runtime selection plus
// this command's own flags.
type runOpts struct {
	runtext.Selection
	algoName, dataset, model, schemeStr string
	alpha                               float64
	clusters                            int
	clients, perRound, samples, testN   int
	rounds, batch, epochs               int
	lr, momentum, mu, scale, target     float64
	seed                                int64
	quiet, wire, async                  bool
	clip                                float64
	savePath, tracePath                 string
	shards                              int
	staleExp, flopRate                  float64
	serve, resumeCk, checkCk            string
	snapAt                              int
	digest                              bool
}

func run(o runOpts) error {
	kind := data.Kind(o.dataset)
	st, err := data.TableII(kind)
	if err != nil {
		return err
	}
	train, test, err := data.Generate(data.Spec{Kind: kind, Train: o.clients * o.samples, Test: o.testN, Seed: o.seed})
	if err != nil {
		return err
	}
	var scheme partition.Scheme
	switch o.schemeStr {
	case "iid":
		scheme = partition.IID()
	case "dir":
		scheme = partition.Dirichlet(o.alpha)
	case "orthogonal":
		scheme = partition.Orthogonal(o.clusters)
	default:
		return fmt.Errorf("unknown scheme %q", o.schemeStr)
	}
	parts, err := partition.Partition(scheme, train.Y, train.Classes, o.clients, o.samples, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return err
	}
	algo, err := algos.New(o.algoName, algos.Params{Mu: o.mu})
	if err != nil {
		return err
	}
	spec := nn.ModelSpec{
		Arch: nn.Arch(o.model), Channels: st.Channels,
		Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: o.scale,
	}
	cfg := core.Config{
		Model: spec,
		Train: train, Test: test, Parts: parts,
		Rounds: o.rounds, ClientsPerRound: o.perRound,
		BatchSize: o.batch, LocalEpochs: o.epochs,
		LR: o.lr, Momentum: o.momentum, ClipNorm: o.clip,
		Algo: algo, Seed: o.seed,
		TargetAccuracy: o.target,
		Shards:         o.shards,
	}
	if !o.quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	var collector *trace.Collector
	if o.tracePath != "" {
		collector = trace.NewCollector()
		cfg.OnUpdates = collector.Hook()
	}
	if o.wire {
		if o.Transport != "" && o.Transport != "f32" {
			return fmt.Errorf("-wire is shorthand for -transport f32; drop it when using -transport %s", o.Transport)
		}
		o.Transport = "f32"
	}
	if o.async && (o.Runtime == "" || o.Runtime == core.RuntimeSync) {
		o.Runtime = core.RuntimeAsync
	}
	var finalGlobal []float64
	if o.savePath != "" {
		cfg.OnRound = func(round int, s *core.Server) {
			if round == o.rounds {
				finalGlobal = append(finalGlobal[:0], s.Global()...)
			}
		}
	}
	rspec, err := o.Selection.Parse(cfg)
	if err != nil {
		return err
	}
	if o.staleExp < 0 {
		return fmt.Errorf("-stale-exp %g must be >= 0 (a negative exponent would amplify stale updates)", o.staleExp)
	}
	rspec.Discount = core.PolyDiscount(o.staleExp)
	// Attached whether or not a fleet is configured: a -flop-rate without
	// -device-dist must hit Validate's rejection, not pass as a no-op.
	rspec.FlopRate = o.flopRate * 1e9
	rt := rspec.Runtime
	if err := rspec.Validate(); err != nil { // resolve defaults for the banner
		return err
	}
	switch rt {
	case core.RuntimeSync:
		fmt.Printf("fedtrip: %s on %s/%s, %s, %d-of-%d clients, %d rounds, policy %s\n",
			algo.Name(), o.model, o.dataset, scheme, o.perRound, o.clients, o.rounds, rspec.Policy)
	default:
		pricing := fmt.Sprintf("latency=%s", rspec.Latency)
		if rspec.Devices != nil {
			pricing = fmt.Sprintf("devices=%s flop-rate=%gGF/s", rspec.Devices, rspec.FlopRate/1e9)
			if rspec.AdaptiveLocalSteps {
				pricing += " adaptive-steps"
			}
		}
		if rspec.Churn != nil {
			pricing += fmt.Sprintf(" dropout=%s", rspec.Churn)
		}
		if rspec.Faults != nil {
			pricing += fmt.Sprintf(" faults=%s", rspec.Faults)
		}
		if rspec.Network != nil {
			pricing += fmt.Sprintf(" bandwidth=%s", rspec.Network)
		}
		if rspec.Transport != nil {
			pricing += fmt.Sprintf(" transport=%s", rspec.Transport)
		}
		fmt.Printf("fedtrip: %s on %s/%s, %s, %s policy=%s buffer=%d conc=%d %s, %d aggregations\n",
			algo.Name(), o.model, o.dataset, scheme, rt, rspec.Policy, rspec.BufferSize, rspec.Concurrency, pricing, o.rounds)
	}
	res, err := execute(o, rspec, collector)
	if err != nil {
		return err
	}
	if res == nil {
		// Gracefully interrupted; the snapshot message has been printed.
		return nil
	}
	commLabel := "analytic"
	if rspec.Transport != nil {
		commLabel = "measured"
	}
	fmt.Printf("\nsummary:\n")
	fmt.Printf("  best accuracy   %.4f\n", res.BestAccuracy)
	fmt.Printf("  final accuracy  %.4f (mean of last 10 evaluated rounds)\n", res.FinalAccuracy)
	fmt.Printf("  train GFLOPs    %.2f (all clients, incl. attaching ops)\n", res.TotalGFLOPs())
	fmt.Printf("  communication   %.2f MB (%s)\n", float64(res.CommBytesByRound[len(res.CommBytesByRound)-1])/1e6, commLabel)
	if st, ok := rspec.Transport.(interface{ Stats() *comm.Stats }); ok {
		fmt.Printf("  wire traffic    %s\n", st.Stats())
	}
	if mt, ok := rspec.Transport.(core.MeteredTransport); ok {
		// Exact byte counts, greppable by CI assertions.
		d, u := mt.WireBytes()
		fmt.Printf("  wire bytes      %d (down %d, up %d)\n", d+u, d, u)
	}
	// Every run carries the clock series; only a priced one moves it.
	simulated := res.SimTimeByRound[len(res.SimTimeByRound)-1]
	if simulated > 0 {
		fmt.Printf("  simulated time  %.1f s\n", simulated)
	}
	if res.DroppedUpdates > 0 {
		fmt.Printf("  dropped updates %d (in-flight work of permanently dropped clients)\n", res.DroppedUpdates)
	}
	if res.RejectedUpdates > 0 {
		fmt.Printf("  rejected updates %d (non-finite uploads refused by the merge screen)\n", res.RejectedUpdates)
	}
	if o.target > 0 {
		if res.RoundsToTarget > 0 {
			fmt.Printf("  rounds to %.0f%%  %d (%.2f GFLOPs, %.2f MB)\n",
				o.target*100, res.RoundsToTarget, res.GFLOPsToTarget(), float64(res.CommBytesToTarget())/1e6)
			if simulated > 0 {
				fmt.Printf("  time to %.0f%%    %.1f s (simulated)\n", o.target*100, res.TimeToTarget())
			}
		} else {
			fmt.Printf("  target %.0f%% not reached in %d rounds\n", o.target*100, res.Rounds)
		}
	}
	if collector != nil {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := collector.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("  trace           %s (%d rows)\n", o.tracePath, len(collector.Rows()))
	}
	if o.savePath != "" {
		m, err := spec.Build(1)
		if err != nil {
			return err
		}
		if finalGlobal != nil {
			m.SetParams(finalGlobal)
		}
		f, err := os.Create(o.savePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.SaveParams(f); err != nil {
			return err
		}
		fmt.Printf("  checkpoint      %s (%d params)\n", o.savePath, m.NumParams())
	}
	if o.digest {
		fmt.Printf("  digest          %s\n", res.Digest())
	}
	return nil
}

// execute drives the run: plain stepping (with optional -snapshot-at and
// graceful-stop checkpointing) or behind the HTTP run-server. A nil, nil
// return means the run was interrupted and its snapshot written — there
// is no Result to summarize.
func execute(o runOpts, rspec core.RunSpec, collector *trace.Collector) (*core.Result, error) {
	if o.snapAt > 0 && o.checkCk == "" {
		return nil, fmt.Errorf("-snapshot-at needs -checkpoint PATH to write to")
	}
	if o.snapAt > 0 && o.serve != "" {
		return nil, fmt.Errorf("-snapshot-at drives the plain runner; in -serve mode fetch GET /checkpoint instead")
	}
	var rs *core.RunState
	if o.resumeCk != "" {
		f, err := os.Open(o.resumeCk)
		if err != nil {
			return nil, err
		}
		rs, err = core.Resume(f, core.ResumeSpec{Spec: rspec})
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("resuming %s: %w", o.resumeCk, err)
		}
		fmt.Printf("fedtrip: resumed %s at round %d/%d\n", o.resumeCk, rs.Round(), rspec.Rounds)
	} else {
		var err error
		rs, err = core.NewRunState(rspec)
		if err != nil {
			return nil, err
		}
	}
	defer rs.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.serve != "" {
		ctrl := runserver.New(rs, collector)
		ln, err := net.Listen("tcp", o.serve)
		if err != nil {
			return nil, err
		}
		hsrv := &http.Server{Handler: ctrl.Handler()}
		fmt.Printf("fedtrip: serving run state on http://%s (/status /metrics /trace /checkpoint)\n", ln.Addr())
		go hsrv.Serve(ln)
		res, err := ctrl.Run(ctx)
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		hsrv.Shutdown(shutCtx)
		cancel()
		if err == context.Canceled {
			return nil, interrupted(rs, o)
		}
		return res, err
	}

	for {
		done, err := rs.Step()
		if err != nil {
			return nil, err
		}
		if o.snapAt > 0 && rs.Round() == o.snapAt {
			if err := writeSnapshot(rs, o.checkCk); err != nil {
				return nil, err
			}
			fmt.Printf("fedtrip: snapshot at round %d written to %s\n", rs.Round(), o.checkCk)
		}
		if done {
			break
		}
		if ctx.Err() != nil {
			return nil, interrupted(rs, o)
		}
	}
	return rs.Finish(), nil
}

// interrupted handles a graceful stop at a round boundary: write the run
// snapshot if a -checkpoint path was given, otherwise fail loudly so a
// lost run never looks like a clean exit.
func interrupted(rs *core.RunState, o runOpts) error {
	if o.checkCk == "" {
		return fmt.Errorf("interrupted at round %d with no -checkpoint path; run state lost", rs.Round())
	}
	if err := writeSnapshot(rs, o.checkCk); err != nil {
		return err
	}
	fmt.Printf("fedtrip: interrupted at round %d; snapshot written to %s (continue with -resume %s)\n",
		rs.Round(), o.checkCk, o.checkCk)
	return nil
}

// writeSnapshot replaces path with the run's snapshot atomically: the
// stream goes to a temp file in the same directory and is renamed over
// path only once it is written, synced and closed, so a failed or killed
// write never costs the last good checkpoint.
func writeSnapshot(rs *core.RunState, path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failing; closing twice is harmless
			os.Remove(f.Name())
		}
	}()
	if err = rs.Snapshot(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
