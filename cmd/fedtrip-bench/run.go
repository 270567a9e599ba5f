package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quantize"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sample is one measured value: n is how many samples a median or
// percentile summarises (0 for a single reading).
type sample struct {
	value float64
	n     int
}

func medianOf(xs []float64) sample { return sample{median(xs), len(xs)} }

// measure is an untraced run: the end-to-end metrics and the host-time
// readings.
//
// Set-up is 1 discarded + setupBuilds timed builds, each brought to
// reference host speed (hostspeed.go); then one warm-up pass
// (it pays first-touch page faults, pool growth and the snapshot buffer's
// growth, and fixes the reference digest) and timedPasses timed passes,
// each a complete run from a fresh run state. Every pass yields one value
// per host-time metric and the run reports the median over the passes —
// step times pooled over all of them — so one stalled pass cannot move a
// run's number.
func (b *bench) measure() (map[string]sample, error) {
	in, builds, err := b.setUp(setupBuilds, nil, newSpeedProbe())
	if err != nil {
		return nil, err
	}
	base := liveHeap() // dataset + partition only

	warm, err := b.runPass(in, procs, nil)
	if err != nil {
		return nil, err
	}
	warm.release()
	b.logf("warm-up pass: %.3f s", warm.wall.Seconds())

	var ups, cpus, steps []float64
	var state, timed float64
	var last *pass
	for i := 1; i <= timedPasses; i++ {
		p, err := b.runPass(in, procs, nil)
		if err != nil {
			return nil, err
		}
		state = b.stateBytes(p.release(), base)
		timed += p.wall.Seconds()
		b.logf("pass %d: %.3f s wall, %.3f s cpu, %d steps, final acc %.4f, digest %s", i, p.wall.Seconds(), p.cpu.Seconds(), len(p.stepMS), p.res.FinalAccuracy, p.res.Digest())
		ups = append(ups, p.updatesPerSec(b.w))
		cpus = append(cpus, p.cpuMSPerUpdate(b.w))
		steps = append(steps, p.stepMS...)
		last = p
	}
	b.logf("%d timed passes took %.1f s (-seconds %g is what the workload sizes assume)", timedPasses, timed, b.seconds)

	return map[string]sample{
		"setup_s":       medianOf(builds),
		"peak_rss_mb":   {value: peakRSSMB()},
		"state_heap_mb": {value: state / (1 << 20)},
		// The digest check already failed the run if these differ
		// between passes: both series are hashed into it.
		"total_gflops":  {value: last.res.TotalGFLOPs()},
		"total_wire_mb": {value: float64(last.res.CommBytesByRound[len(last.res.CommBytesByRound)-1]) / 1e6},

		"updates_per_s":     medianOf(ups),
		"step_ms_p50":       medianOf(steps),
		"cpu_ms_per_update": medianOf(cpus),
	}, nil
}

// stateBytes is what a finished pass's run state keeps: the live heap with
// the state still held, minus the inputs' share and the benchmark's own
// checkpoint buffer (256 MiB of capacity on sync10k_f32_ckpt, grown by the
// warm-up pass and kept for the next).
func (b *bench) stateBytes(live, base float64) float64 {
	return live - base - float64(b.snapBuf.Cap())
}

// gcCounters are the runtime/metrics totals go.* metrics are deltas of.
type gcCounters struct{ cycles, gcCPU, objects, bytes float64 }

func readGCCounters() gcCounters {
	return gcCounters{
		cycles:  readMetric("/gc/cycles/total:gc-cycles"),
		gcCPU:   readMetric("/cpu/classes/gc/total:cpu-seconds"),
		objects: readMetric("/gc/heap/allocs:objects"),
		bytes:   readMetric("/gc/heap/allocs:bytes"),
	}
}

func (a gcCounters) minus(b gcCounters) gcCounters {
	return gcCounters{a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.objects - b.objects, a.bytes - b.bytes}
}

func (a gcCounters) plus(b gcCounters) gcCounters {
	return gcCounters{a.cycles + b.cycles, a.gcCPU + b.gcCPU, a.objects + b.objects, a.bytes + b.bytes}
}

// share is one row of the layer-share table: the part of a traced pass's
// CPU time a layer accounts for.
type share struct {
	Layer string  `json:"layer"`
	Pct   float64 `json:"pct"`
}

// traced is what a traced run produces beyond its metrics.
type traced struct {
	metrics map[string]sample
	spans   []span
	layers  []layerStat
	shares  []share
}

// Pass counts of a traced run. The reference passes are untraced: tracing
// overhead is traced-vs-reference step time, and the GC/allocation deltas
// are taken around them so the tracer's own allocations stay out.
const refPasses, tracedPasses = 2, 2

// measureTraced is a traced run: the per-layer metrics. It runs a short
// set-up under spans, a warm-up, the untraced reference passes, the traced
// passes (wrappers and hooks installed; they must reproduce the untraced
// digest), one pass on a single thread, and the direct-call probes.
func (b *bench) measureTraced() (*traced, error) {
	tr := newTracer()
	w := b.w
	in, _, err := b.setUp(2, tr, nil)
	if err != nil {
		return nil, err
	}
	base := liveHeap()

	warm, err := b.runPass(in, procs, nil)
	if err != nil {
		return nil, err
	}
	warm.release()

	var ref []*pass
	var gc gcCounters
	for i := 0; i < refPasses; i++ {
		before := readGCCounters()
		p, err := b.runPass(in, procs, nil)
		if err != nil {
			return nil, err
		}
		gc = gc.plus(readGCCounters().minus(before))
		p.release()
		ref = append(ref, p)
		b.logf("reference pass %d: %.3f s", i+1, p.wall.Seconds())
	}

	var trc []*pass
	var state float64
	for i := 0; i < tracedPasses; i++ {
		p, err := b.runPass(in, procs, tr)
		if err != nil {
			return nil, err
		}
		state = b.stateBytes(p.release(), base)
		trc = append(trc, p)
		b.logf("traced pass %d: %.3f s", i+1, p.wall.Seconds())
	}

	runtime.GOMAXPROCS(1)
	single, err := b.runPass(in, 1, nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	single.release()
	b.logf("single-thread pass: %.3f s", single.wall.Seconds())

	numParams, err := b.probes(in, tr)
	if err != nil {
		return nil, err
	}
	layers := tr.finish()

	// Totals over the traced passes, reported per pass.
	perPass := func(name string) (count, totalMS float64) {
		ds := tr.durationsMS(name)
		return float64(len(ds)) / tracedPasses, sum(ds) / tracedPasses
	}
	p50 := func(name string) sample { return medianOf(tr.durationsMS(name)) }
	us := func(s sample) sample { return sample{s.value * 1e3, s.n} }

	var refUps, refWalls, refCPU, refCPUPerUpdate, refSteps, trcWalls, trcSteps, trcCPU, snapMS, resumeMS []float64
	for _, p := range ref {
		refUps = append(refUps, p.updatesPerSec(w))
		refWalls = append(refWalls, p.wall.Seconds())
		refCPU = append(refCPU, p.cpu.Seconds())
		refCPUPerUpdate = append(refCPUPerUpdate, p.cpuMSPerUpdate(w))
		refSteps = append(refSteps, p.stepMS...)
	}
	for _, p := range trc {
		trcWalls = append(trcWalls, p.wall.Seconds())
		trcSteps = append(trcSteps, p.stepMS...)
		trcCPU = append(trcCPU, ms(p.cpu))
		snapMS = append(snapMS, ms(p.snapshot))
		resumeMS = append(resumeMS, ms(p.resume))
	}
	res := trc[0].res
	updates := float64(trc[0].updates(w))
	refUpdates := updates * refPasses

	firstN, firstMS := perPass("algos.beginround_first")
	againN, againMS := perPass("algos.beginround")
	tgN, tgMS := perPass("algos.transformgrad")
	_, endMS := perPass("algos.endround")
	downN, downMS := perPass("comm.down")
	upN, upMS := perPass("comm.up")
	_, mergeMS := perPass("core.merge_phase")
	wire := float64(res.CommBytesByRound[len(res.CommBytesByRound)-1])
	gemm := p50("tensor.gemm")
	gemmFLOPs := 2 * float64(w.gemm[0]*w.gemm[1]*w.gemm[2])
	var simTime, staleness float64
	if n := len(res.SimTimeByRound); n > 0 {
		simTime = res.SimTimeByRound[n-1]
		for _, s := range res.MeanStalenessByRound {
			staleness += s / float64(n)
		}
	}
	var gcCPUPct float64
	if cpu := sum(refCPU); cpu > 0 {
		gcCPUPct = 100 * gc.gcCPU / cpu
	}

	t := &traced{spans: tr.spans, layers: layers}
	t.metrics = map[string]sample{
		"data.generate_ms":       p50("data.generate"),
		"partition.partition_ms": p50("partition.partition"),
		"core.newrunstate_ms":    p50("core.newrunstate"),

		"tensor.gemm_ms":           gemm,
		"tensor.gemm_gflops_per_s": {gemmFLOPs / (gemm.value * 1e6), gemm.n},
		"nn.forward_ms":            p50("nn.forward"),
		"nn.backward_ms":           p50("nn.backward"),
		"optim.step_us":            us(p50("optim.step")),

		"algos.transformgrad_us_p50":   us(p50("algos.transformgrad")),
		"algos.transformgrad_calls":    {value: tgN},
		"algos.transformgrad_ms_total": {value: tgMS},
		"algos.beginround_ms_total":    {value: firstMS + againMS},
		"algos.endround_ms_total":      {value: endMS},

		"core.localtrain_ms_p50":  p50("core.localtrain"),
		"core.train_phase_ms_p50": p50("core.train_phase"),
		"core.merge_phase_ms_p50": p50("core.merge_phase"),
		"core.post_phase_ms_p50":  p50("core.post_phase"),

		"core.step_ms_p95":      {stats.Quantile(refSteps, 0.95), len(refSteps)},
		"core.step_ms_max":      {stats.Quantile(refSteps, 1), len(refSteps)},
		"core.cold_pass_ratio":  {value: warm.wall.Seconds() / median(refWalls)},
		"core.events_per_s":     {value: 2 * (firstN + againN) * tracedPasses / sum(trcWalls)}, // a dispatch and its arrival per BeginRound
		"core.participants":     {value: firstN},
		"core.dropped_updates":  {value: float64(res.DroppedUpdates)},
		"core.rejected_updates": {value: float64(res.RejectedUpdates)},
		"core.mean_staleness":   {value: staleness},
		"core.sim_time_s":       {value: simTime},
		"core.final_acc":        {value: res.FinalAccuracy},

		"core.state_bytes_per_participant": {value: state / firstN},
		"core.evaluate_ms":                 p50("core.evaluate"),
		"core.snapshot_ms":                 medianOf(snapMS),
		"core.resume_ms":                   medianOf(resumeMS),
		"core.snapshot_mb":                 {value: float64(trc[0].snapBytes) / (1 << 20)},

		"comm.down_ms_total":         {value: downMS},
		"comm.up_ms_total":           {value: upMS},
		"comm.down_us_p50":           us(p50("comm.down")),
		"comm.up_us_p50":             us(p50("comm.up")),
		"comm.down_calls":            {value: downN},
		"comm.up_calls":              {value: upN},
		"comm.wire_bytes_per_update": {value: wire / updates},
		// Against the analytic dense-float32 cost of the same updates.
		"comm.compression_ratio": {value: 8 * float64(numParams) * updates / wire},

		"quantize.topk_ms": p50("quantize.topk"),
		"quantize.q8_ms":   p50("quantize.q8"),

		"parallel.scaling_2x":     {value: median(refUps) / single.updatesPerSec(w)},
		"flops.gflops_per_update": {value: res.TotalGFLOPs() / updates},
		"go.gc_cycles":            {value: gc.cycles / refPasses},
		"go.gc_cpu_pct":           {value: gcCPUPct},
		"go.allocs_per_update":    {value: gc.objects / refUpdates},
		"go.alloc_kb_per_update":  {value: gc.bytes / 1024 / refUpdates},

		"bench.trace_overhead_pct": {100 * (median(trcSteps)/median(refSteps) - 1), len(trcSteps)},
		"bench.pass_wall_iqr_pct":  {100 * (stats.Quantile(refWalls, 0.75) - stats.Quantile(refWalls, 0.25)) / median(refWalls), len(refWalls)},

		// The host-time metrics of the untraced run, over the reference
		// passes: demoted from end-to-end (metrics.go).
		"core.updates_per_s":     medianOf(refUps),
		"core.step_ms_p50":       medianOf(refSteps),
		"core.cpu_ms_per_update": medianOf(refCPUPerUpdate),
	}

	// Layer shares of a traced pass's CPU: probe cost x call count where
	// the layer cannot be wrapped from outside, span totals where it can.
	m := t.metrics
	cpu := median(trcCPU)
	train := m["core.localtrain_ms_p50"].value * (firstN + againN)
	nnMS := (m["nn.forward_ms"].value + m["nn.backward_ms"].value) * tgN
	optMS := m["optim.step_us"].value / 1e3 * tgN
	algoMS := tgMS + firstMS + againMS + endMS
	evalMS := m["core.evaluate_ms"].value * float64(w.evalsPerPass())
	ckptMS := median(snapMS) + median(resumeMS)
	pct := func(ms float64) float64 { return 100 * ms / cpu }
	t.shares = []share{
		{"tensor+nn (forward+backward)", pct(nnMS)},
		{"optim", pct(optMS)},
		{"algos (FedTrip hooks)", pct(algoMS)},
		{"core.LocalTrain, rest", pct(train - nnMS - optMS - algoMS)},
		{"comm (+quantize)", pct(downMS + upMS)},
		{"core merge phase", pct(mergeMS)},
		{"core evaluate", pct(evalMS)},
		{"core snapshot+resume", pct(ckptMS)},
		{"runtime, rest", pct(cpu - train - downMS - upMS - mergeMS - evalMS - ckptMS)},
	}
	return t, nil
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// probes times single layers by calling them directly, at the workload's
// shapes, on the benchmark's goroutine. It returns |w|.
func (b *bench) probes(in inputs, tr *tracer) (numParams int, err error) {
	w := b.w
	rng := rand.New(rand.NewSource(b.seed))
	timed := func(name string, reps int, f func()) {
		for i := 0; i < reps; i++ {
			sp := tr.begin(name)
			f()
			tr.end(sp)
		}
	}

	// tensor: the model's dominant GEMM.
	m, k, n := w.gemm[0], w.gemm[1], w.gemm[2]
	a, bm, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	a.RandNormal(rng, 1)
	bm.RandNormal(rng, 1)
	timed("tensor.gemm", 200, func() { tensor.MatMul(c, a, bm) })

	// nn and optim: one training batch through the workload's model.
	model, err := w.model.Build(b.seed)
	if err != nil {
		return 0, err
	}
	numParams = model.NumParams()
	x := tensor.New(append([]int{w.batch}, model.InShape()...)...)
	labels := make([]int, w.batch)
	in.train.FillBatch(x, labels, in.parts[0][:w.batch])
	dLogits := tensor.New(w.batch, model.OutDim())
	opt := optim.NewSGDMomentum(0.01, 0.9)
	for i := 0; i < 30; i++ {
		sp := tr.begin("nn.forward")
		logits := model.Forward(x, true)
		tr.end(sp)
		nn.SoftmaxCrossEntropy(logits, labels, dLogits)
		model.ZeroGrad()
		sp = tr.begin("nn.backward")
		model.Backward(dLogits, nil)
		tr.end(sp)
		sp = tr.begin("optim.step")
		opt.Step(model.Params(), model.Grads())
		tr.end(sp)
	}

	// quantize: the two codecs on a |w|-sized vector.
	vec := make([]float64, numParams)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	var qerr error
	timed("quantize.topk", 20, func() {
		if _, err := quantize.TopK(vec, int(math.Ceil(0.01*float64(numParams)))); err != nil {
			qerr = err
		}
	})
	timed("quantize.q8", 20, func() {
		if _, err := quantize.Quantize(vec, 8); err != nil {
			qerr = err
		}
	})
	if qerr != nil {
		return 0, qerr
	}

	// core: LocalTrain and EvaluateGlobal on a probe run's clients.
	spec, err := w.spec(in, procs)
	if err != nil {
		return 0, err
	}
	rs, err := core.NewRunState(spec)
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	// At least 8 clients, then more for up to a second: a tiny model's
	// first LocalTrain is mostly allocation, and 8 samples of that spread
	// too widely for the share table.
	global := rs.Server().Global()
	start := time.Now()
	for i, cl := range rs.Server().Clients() {
		if i >= 8 && (i >= 64 || time.Since(start) > time.Second) {
			break
		}
		sp := tr.begin("core.localtrain")
		cl.LocalTrain(1, global)
		tr.end(sp)
	}
	timed("core.evaluate", 5, func() { rs.Server().EvaluateGlobal() })
	return numParams, nil
}
