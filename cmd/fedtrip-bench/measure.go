package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

const (
	// procs is GOMAXPROCS and Config.Shards of every measured pass: the
	// reference box has 2 vCPUs, and pinning both keeps numbers from a
	// larger machine comparable.
	procs = 2
	// setupBuilds timed builds follow one discarded build.
	setupBuilds = 5
	// timedPasses complete runs follow the warm-up pass. The count is fixed
	// so that "median over the passes" is the same estimator in every run;
	// the workloads are sized so that five passes fit -seconds.
	timedPasses = 5
)

// bench is one run of one workload: the protocol state shared by the
// untraced and traced modes.
type bench struct {
	w       workload
	seed    int64
	trainN  int
	seconds float64   // the pass-time budget the workload sizes assume; only logged
	log     io.Writer // progress and per-pass timings (stderr)

	// Operations are Steps, snapshot->resume cycles and end-of-pass
	// checks. refDigest is the warm-up pass's; every later pass must
	// reproduce it.
	attempted, failed int
	refDigest         string
	digests           []string
	// snapBuf receives the checkpoint; the warm-up pass grows it once and
	// later passes reuse the capacity, so no pass pays for the growth.
	snapBuf bytes.Buffer
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "fedtrip-bench: %s: "+format+"\n", append([]any{b.w.name}, args...)...)
}

// fail counts one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.logf("FAIL: "+format, args...)
}

// build is one set-up: synthesise the corpus, partition it, parse the
// specs and construct (then close) the run state. The previous build's
// inputs must already be unreferenced — the forced GC frees them, so
// consecutive builds reuse the same memory instead of doubling peak RSS.
func (b *bench) build(tr *tracer) (inputs, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	sp := tr.begin("bench.build")
	defer tr.end(sp)
	in, err := b.w.generate(b.seed, b.trainN, tr)
	if err != nil {
		return inputs{}, 0, err
	}
	spec, err := b.w.spec(in, procs)
	if err != nil {
		return inputs{}, 0, err
	}
	nsp := tr.begin("core.newrunstate")
	rs, err := core.NewRunState(spec)
	tr.end(nsp)
	if err != nil {
		return inputs{}, 0, err
	}
	rs.Close()
	return in, time.Since(start), nil
}

// setUp runs one discarded and n timed builds and returns the last
// build's inputs with the timed durations in seconds. With a probe, every
// timed build is bracketed by two readings of the host's speed and its
// duration is brought to reference speed (hostspeed.go).
func (b *bench) setUp(n int, tr *tracer, probe *speedProbe) (inputs, []float64, error) {
	var in inputs
	var secs []float64
	var reading float64 // the probe's latest, taken after the previous build
	for i := 0; i <= n; i++ {
		in = inputs{}
		var d time.Duration
		var err error
		if in, d, err = b.build(tr); err != nil {
			return inputs{}, nil, fmt.Errorf("set-up build %d: %w", i, err)
		}
		s := d.Seconds()
		if probe != nil {
			before := reading
			reading = probe.read()
			if i > 0 {
				s = atReferenceSpeed(s, before, reading)
			}
		}
		if i == 0 {
			b.logf("build 0 (discarded): %.3f s", s)
			continue
		}
		if probe == nil {
			b.logf("build %d: %.3f s", i, s)
		} else {
			b.logf("build %d: %.3f s, %.3f s at reference speed", i, d.Seconds(), s)
		}
		secs = append(secs, s)
	}
	return in, secs, nil
}

// pass is what one complete run of the workload measured.
type pass struct {
	wall, cpu        time.Duration // first Step to Finish
	stepMS           []float64
	snapshot, resume time.Duration
	snapBytes        int
	res              *core.Result
	// rs is the closed run, kept so the caller can weigh the memory a
	// finished run still holds; drop it before the next pass.
	rs *core.RunState
}

func (p *pass) updates(w workload) int { return p.res.Rounds * w.updatesPerRound() }

func (p *pass) updatesPerSec(w workload) float64 {
	return float64(p.updates(w)) / p.wall.Seconds()
}

func (p *pass) cpuMSPerUpdate(w workload) float64 {
	return float64(p.cpu) / 1e6 / float64(p.updates(w))
}

// instrumented returns a fresh spec for the workload with, when tracing,
// the Algorithm and Transport wrappers and the two phase hooks installed.
func (b *bench) instrumented(in inputs, shards int, tr *tracer, ph *stepPhases) (core.RunSpec, error) {
	spec, err := b.w.spec(in, shards)
	if err != nil || tr == nil {
		return spec, err
	}
	spec.Algo = &tracedAlgo{inner: core.NewFedTrip(0.4), tr: tr}
	if spec.Transport, err = traceTransport(spec.Transport, tr); err != nil {
		return spec, err
	}
	spec.OnUpdates, spec.OnRound = ph.onUpdates, ph.onRound
	return spec, nil
}

// runPass executes the workload once from a fresh run state, stepping to
// completion, and checks the outcome. A returned error means the pass
// could not finish; check failures are counted and logged but still
// return the measurements.
func (b *bench) runPass(in inputs, shards int, tr *tracer) (*pass, error) {
	ph := &stepPhases{tr: tr}
	spec, err := b.instrumented(in, shards, tr, ph)
	if err != nil {
		return nil, err
	}
	rs, err := core.NewRunState(spec)
	if err != nil {
		return nil, err
	}
	defer func() { rs.Close() }() // rs is rebound by the checkpoint cycle

	p := &pass{}
	psp := tr.begin("bench.pass")
	cpu0, start := cpuTime(), time.Now()
	for done := false; !done; {
		t0 := time.Now()
		ph.start()
		done, err = rs.Step()
		ph.finish()
		p.stepMS = append(p.stepMS, ms(time.Since(t0)))
		b.attempted++
		if err != nil {
			b.fail("step %d: %v", len(p.stepMS), err)
			return nil, err
		}
		if !done && rs.Round() == b.w.ckptAfter {
			b.attempted++
			if rs, err = b.checkpointCycle(rs, in, shards, tr, ph, p); err != nil {
				b.fail("checkpoint cycle after round %d: %v", b.w.ckptAfter, err)
				return nil, err
			}
		}
	}
	p.res = rs.Finish()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(psp)
	p.rs = rs

	b.attempted++
	digest := p.res.Digest()
	b.digests = append(b.digests, digest)
	switch {
	case b.refDigest == "":
		b.refDigest = digest
	case digest != b.refDigest:
		b.fail("pass digest %s differs from the warm-up pass's %s", digest, b.refDigest)
	}
	if !tensor.AllFinite(rs.Server().Global()) {
		b.fail("non-finite global model")
	} else if loss := p.res.TrainLoss; b.w.mustLearn && !(loss[len(loss)-1] < loss[0]) {
		b.fail("training loss did not fall: %.4f in round 1, %.4f in round %d", loss[0], loss[len(loss)-1], len(loss))
	}
	return p, nil
}

// checkpointCycle snapshots the run into the reused buffer, closes it and
// resumes from the bytes with a fresh spec — what a kill-and-restart does,
// minus the disk.
func (b *bench) checkpointCycle(rs *core.RunState, in inputs, shards int, tr *tracer, ph *stepPhases, p *pass) (*core.RunState, error) {
	b.snapBuf.Reset()
	t0 := time.Now()
	sp := tr.begin("core.snapshot")
	err := rs.Snapshot(&b.snapBuf)
	tr.end(sp)
	p.snapshot, p.snapBytes = time.Since(t0), b.snapBuf.Len()
	if err != nil {
		return rs, err
	}
	rs.Close()
	spec, err := b.instrumented(in, shards, tr, ph)
	if err != nil {
		return rs, err
	}
	t0 = time.Now()
	sp = tr.begin("core.resume")
	resumed, err := core.Resume(bytes.NewReader(b.snapBuf.Bytes()), core.ResumeSpec{Spec: spec})
	tr.end(sp)
	p.resume = time.Since(t0)
	if err != nil {
		return rs, err
	}
	return resumed, nil
}

// release measures the live heap with the finished pass's run state still
// held, then drops the state and collects it so the next pass starts from
// the same heap every time.
func (p *pass) release() (liveBytes float64) {
	liveBytes = liveHeap()
	runtime.KeepAlive(p.rs)
	p.rs = nil
	runtime.GC()
	return liveBytes
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readMetric reads one runtime/metrics sample as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	panic("fedtrip-bench: runtime metric " + name + " is not a number")
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() float64 {
	runtime.GC()
	return readMetric("/memory/classes/heap/objects:bytes")
}
