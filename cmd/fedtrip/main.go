// Command fedtrip runs a single federated-learning experiment and prints
// per-round progress plus a summary. It is the quickest way to try the
// library:
//
//	fedtrip -algo fedtrip -dataset mnist -model cnn -scheme dir -alpha 0.5 -rounds 30
//
// Every registered method is available via -algo (-h lists them). The
// flags that describe the run live in internal/runtext, which is also how
// the examples assemble theirs (runtext.FromLine takes the same text): the
// task half — -algo, -dataset, -model, -scheme, -clients, -k, -rounds,
// -seed, ... — is runtext.Task; the runtime selection — -runtime,
// -latency, -policy, -server-lr, -concurrency, -buffer, -device-dist,
// -dropout, -local-steps-adaptive, -transport, -bandwidth-dist, -faults —
// is runtext.Selection, shared with fedtrip-tables, every value written in
// the one spec grammar (internal/spec: name[:a,b,...] terms composed with
// "+"; README "One run API" has the table, -h the per-flag vocabulary);
// and runtext.Command adds -flop-rate (device throughput). The staleness
// discount is the policy's own argument (-policy fedbuff:EXP):
//
//	fedtrip -algo fedtrip -runtime async -latency straggler:1,10,5 -buffer 2 -rounds 60
//	fedtrip -algo fedtrip -runtime async -latency exp:2 -policy fedasync:0.6 -rounds 60
//	fedtrip -algo fedavg -runtime barrier -latency straggler:1,10,5 -rounds 30
//	fedtrip -algo fedtrip -runtime barrier -latency exp:2 -dropout markov:90,10 -rounds 30
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
//	fedtrip -runtime async -clients 10000 -samples 6 -concurrency 256 -buffer 64 \
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
//
// -cpuprofile and -memprofile write runtime/pprof profiles (internal/obs,
// shared with fedtrip-tables); the heap profile is taken when the last
// round is done, with the run's state still held, and neither changes the
// run's digest:
//
//	fedtrip -rounds 30 -memprofile mem.prof && go tool pprof -sample_index=inuse_space -top mem.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runserver"
	"repro/internal/runtext"
	"repro/internal/trace"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		_, err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedtrip:", err)
		os.Exit(1)
	}
}

// runOpts is the parsed command line: the run (runtext.Command, the flags
// runtext.FromLine also reads) plus the flags that only steer this
// program.
type runOpts struct {
	runtext.Command
	quiet                    bool
	savePath, tracePath      string
	serve, resumeCk, checkCk string
	snapAt                   int
	digest                   bool
	profiles                 obs.Profiles
}

func parseFlags(fs *flag.FlagSet, args []string) (runOpts, error) {
	var o runOpts
	o.Command.Register(fs)
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-round lines")
	fs.StringVar(&o.savePath, "save", "", "write the final global model checkpoint to this file")
	fs.StringVar(&o.tracePath, "trace", "", "write per-client round telemetry CSV to this file")
	fs.StringVar(&o.serve, "serve", "", "run behind an HTTP run-server on this address (GET /status /metrics /trace /checkpoint)")
	fs.StringVar(&o.resumeCk, "resume", "", "resume the run snapshot at this path (flags must rebuild the same run)")
	fs.StringVar(&o.checkCk, "checkpoint", "", "write a run snapshot to this path: on SIGTERM/SIGINT (graceful stop) and at -snapshot-at")
	fs.IntVar(&o.snapAt, "snapshot-at", 0, "write -checkpoint after this many completed rounds and keep going (0 = off)")
	fs.BoolVar(&o.digest, "digest", false, "print the run digest (bit-for-bit trajectory fingerprint; resume must reproduce it)")
	o.profiles.Register(fs)
	err := fs.Parse(args)
	return o, err
}

// run executes the command line and prints its banner and summary. The
// Result is nil when the run was gracefully interrupted.
func run(o runOpts) (*core.Result, error) {
	stopProfiles, err := o.profiles.Start()
	if err != nil {
		return nil, err
	}
	defer stopProfiles() // for the error returns before the run is done
	rspec, err := o.Command.RunSpec()
	if err != nil {
		return nil, err
	}
	scheme, err := o.Partition()
	if err != nil {
		return nil, err
	}
	if !o.quiet {
		rspec.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	var collector *trace.Collector
	if o.tracePath != "" {
		collector = trace.NewCollector()
		rspec.OnUpdates = collector.Hook()
	}
	var finalGlobal []float64
	if o.savePath != "" {
		rspec.OnRound = func(round int, s *core.Server) {
			if round == rspec.Rounds {
				finalGlobal = append(finalGlobal[:0], s.Global()...)
			}
		}
	}
	switch rspec.Runtime {
	case core.RuntimeSync:
		fmt.Printf("fedtrip: %s on %s/%s, %s, %d-of-%d clients, %d rounds, policy %s\n",
			rspec.Algo.Name(), o.Model, o.Dataset, scheme, o.K, o.Clients, o.Rounds, rspec.Policy)
	default:
		pricing := fmt.Sprintf("latency=%s", rspec.Latency)
		if !rspec.Devices.None() {
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
		if !rspec.Network.None() {
			pricing += fmt.Sprintf(" bandwidth=%s", rspec.Network)
		}
		if rspec.Transport != nil {
			pricing += fmt.Sprintf(" transport=%s", rspec.Transport)
		}
		fmt.Printf("fedtrip: %s on %s/%s, %s, %s policy=%s buffer=%d conc=%d %s, %d aggregations\n",
			rspec.Algo.Name(), o.Model, o.Dataset, scheme, rspec.Runtime, rspec.Policy, rspec.BufferSize, rspec.Concurrency, pricing, o.Rounds)
	}
	rs, err := execute(o, rspec, collector)
	// rs is still in use below, so the heap profile shows what the run holds.
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if rs == nil {
		// Gracefully interrupted; the snapshot message has been printed.
		return nil, nil
	}
	res := rs.Finish()
	commLabel := "analytic"
	if rspec.Transport != nil {
		commLabel = "measured"
	}
	fmt.Printf("\nsummary:\n")
	fmt.Printf("  best accuracy   %.4f\n", res.BestAccuracy)
	fmt.Printf("  final accuracy  %.4f (mean of last 10 evaluated rounds)\n", res.FinalAccuracy)
	fmt.Printf("  train GFLOPs    %.2f (all clients, incl. attaching ops)\n", res.TotalGFLOPs())
	fmt.Printf("  communication   %.2f MB (%s) over the processed dispatches\n", float64(res.CommBytesByRound[len(res.CommBytesByRound)-1])/1e6, commLabel)
	if tr, ok := rspec.Transport.(interface{ Stats() *comm.Stats }); ok {
		st := tr.Stats()
		fmt.Printf("  wire traffic    %s\n", st)
		// Exact byte counts, greppable by CI assertions. They count every
		// transfer the transport made, so an async run's also holds the
		// dispatches in flight when it ends that have trained, which the
		// communication line leaves out. An in-flight dispatch still
		// waiting to train has not moved any bytes yet: the "uploads held"
		// line counts those.
		fmt.Printf("  wire bytes      %d (down %d, up %d) over every transfer the transport made\n", st.TotalBytes(), st.DownBytes(), st.UpBytes())
	}
	distinct, dispatches := rs.Participation()
	fmt.Printf("  fleet coverage  %d distinct clients over %d dispatches\n", distinct, dispatches)
	fp := rs.Footprint()
	fmt.Printf("  registry        %d of %d clients built, %d B (%.1f B/client)\n",
		fp.Built, fp.Clients, fp.RegistryBytes, float64(fp.RegistryBytes)/float64(fp.Clients))
	fmt.Printf("  uploads held    dense %s, narrowed %s, index patches %s, bitmap patches %s; in flight %d waiting to train, %d trained\n",
		held(fp.Dense), held(fp.Narrowed), held(fp.IndexPatches), held(fp.BitmapPatches), fp.Waiting, fp.Trained)
	fmt.Printf("  versions held   float64 %s, float32 %s\n", held(fp.Versions64), blocks(fp.Versions32, fp.Blocks32))
	fmt.Printf("  pool free lists float64 %s, float32 %s, patch chunks and bitmaps %s, version blocks %s\n", held(fp.Free64), held(fp.Free32), held(fp.FreeChunks), held(fp.FreeBlocks))
	fmt.Printf("  models          engines %s; tester %s\n", models(fp.Engines), models(fp.Tester))
	fmt.Printf("  scratch         server %d B, transport %d B\n", fp.ServerScratch, fp.TransportScratch)
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
	if o.Target > 0 {
		if res.RoundsToTarget > 0 {
			fmt.Printf("  rounds to %.0f%%  %d (%.2f GFLOPs, %.2f MB)\n",
				o.Target*100, res.RoundsToTarget, res.GFLOPsToTarget(), float64(res.CommBytesToTarget())/1e6)
			if simulated > 0 {
				fmt.Printf("  time to %.0f%%    %.1f s (simulated)\n", o.Target*100, res.TimeToTarget())
			}
		} else {
			fmt.Printf("  target %.0f%% not reached in %d rounds\n", o.Target*100, res.Rounds)
		}
	}
	if collector != nil {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := collector.WriteCSV(f); err != nil {
			return nil, err
		}
		fmt.Printf("  trace           %s (%d rows)\n", o.tracePath, len(collector.Rows()))
	}
	if o.savePath != "" {
		m, err := rspec.Model.Build(1)
		if err != nil {
			return nil, err
		}
		if finalGlobal != nil {
			m.SetParams(finalGlobal)
		}
		f, err := os.Create(o.savePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := m.SaveParams(f); err != nil {
			return nil, err
		}
		fmt.Printf("  checkpoint      %s (%d params)\n", o.savePath, m.NumParams())
	}
	if o.digest {
		fmt.Printf("  digest          %s\n", res.Digest())
	}
	return res, nil
}

// execute drives the run: plain stepping (with optional -snapshot-at and
// graceful-stop checkpointing) or behind the HTTP run-server, and returns
// the finished run. A nil, nil return means the run was interrupted and
// its snapshot written — there is no Result to summarize.
func execute(o runOpts, rspec core.RunSpec, collector *trace.Collector) (*core.RunState, error) {
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
	// The snapshot is written right after the Step that completes round
	// N, so an N this run never completes would exit 0 with no snapshot.
	if from, to := rs.Round(), rs.Spec().Rounds; o.snapAt > 0 && (o.snapAt <= from || o.snapAt > to) {
		return nil, fmt.Errorf("-snapshot-at %d never fires: this run completes rounds %d..%d, so N must lie in (%d, %d]", o.snapAt, from+1, to, from, to)
	}

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
		_, err = ctrl.Run(ctx)
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		hsrv.Shutdown(shutCtx)
		cancel()
		if err == context.Canceled {
			return nil, interrupted(rs, o)
		}
		if err != nil {
			return nil, err
		}
		return rs, nil
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
	return rs, nil
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

// held prints one owner of a run's footprint: its count and bytes.
// models formats what a set of model owners holds, in MiB.
func models(m core.Models) string {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf("%d (params and grads %.2f MiB, optimizer %.2f MiB, activations %.2f MiB, scratch %.2f MiB)",
		m.N, mib(m.Params), mib(m.Optimizer), mib(m.Activations), mib(m.Scratch))
}

func held(h core.Held) string {
	if h.N == 0 {
		return "0"
	}
	return fmt.Sprintf("%d (%.2f MiB)", h.N, float64(h.Bytes)/(1<<20))
}

// blocks is held for versions that share n blocks.
func blocks(h core.Held, n int) string {
	if h.N == 0 {
		return "0"
	}
	return fmt.Sprintf("%d versions in %d blocks (%.2f MiB)", h.N, n, float64(h.Bytes)/(1<<20))
}
