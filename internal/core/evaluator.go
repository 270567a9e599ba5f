package core

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// evaluator computes test accuracy off the event loop. The loop hands it a
// snapshot of the global parameters (round, copy-of-w) and keeps merging;
// the evaluator goroutine works through snapshots in order and publishes
// results. At EvalEvery=1 this overlaps each round's evaluation with the
// next round's training and merging — previously the single most expensive
// thing the event loop did inline.
//
// The request channel is deliberately small: if evaluation cannot keep up,
// submit blocks, so at most a couple of |w| snapshots are ever alive.
type evaluator struct {
	t    *tester
	reqs chan evalSnap

	mu     sync.Mutex
	cond   *sync.Cond
	accs   map[int]float64 // round -> accuracy, published as computed
	closed sync.WaitGroup
}

type evalSnap struct {
	round  int
	params []float64
}

// evalDataset is the slice of the dataset API evaluation needs.
type evalDataset interface {
	Len() int
	SampleSize() int
	FillBatch(x *tensor.Tensor, labels []int, idx []int)
}

// evalWindow is evaluation's accounting window: a test set's accuracy is
// the sum, over consecutive windows of this many samples, of the window's
// accuracy times its size, over the set size. The forward runs in chunks
// of at most the training batch inside each window; the window itself
// stays fixed because c/200·200 is not exactly c for every count c, so
// narrowing it would move evaluated accuracies.
const evalWindow = 200

// tester is a model instance plus the batch buffers that evaluate it on
// the test set, sized once to min(Config.BatchSize, evalWindow) rows:
// evaluation holds activations of the training width and, in steady
// state, allocates nothing. A server keeps one: the off-loop evaluator and
// Server.EvaluateGlobal (callable from an OnRound hook while evaluations
// are queued) take turns under mu.
type tester struct {
	mu     sync.Mutex
	model  *nn.Model
	test   evalDataset
	x      *tensor.Tensor
	idx    []int
	labels []int
}

func newTester(cfg *Config) (*tester, error) {
	m, err := cfg.Model.Build(streamSeed(cfg.Seed, streamModel, 0))
	if err != nil {
		return nil, err
	}
	width := min(cfg.BatchSize, evalWindow)
	return &tester{
		model:  m,
		test:   cfg.Test,
		x:      tensor.New(append([]int{width}, m.InShape()...)...),
		idx:    make([]int, width),
		labels: make([]int, width),
	}, nil
}

// accuracy loads params into the model and returns its accuracy over the
// test set.
func (t *tester) accuracy(params []float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.model.SetParams(params)
	n := t.test.Len()
	if n == 0 {
		return 0
	}
	correct := 0.0
	for start := 0; start < n; start += evalWindow {
		end := min(start+evalWindow, n)
		hits := 0
		for lo := start; lo < end; lo += len(t.idx) {
			hits += t.count(lo, min(lo+len(t.idx), end))
		}
		w := float64(end - start)
		correct += float64(hits) / w * w
	}
	return correct / float64(n)
}

// count forwards test samples [lo, hi) and returns how many the model
// classifies right.
func (t *tester) count(lo, hi int) int {
	rows := hi - lo
	for i := range rows {
		t.idx[i] = lo + i
	}
	if t.x.Dim(0) != rows {
		t.x.SetDim0(rows)
	}
	t.test.FillBatch(t.x, t.labels[:rows], t.idx[:rows])
	return nn.Correct(t.model.Forward(t.x, false), t.labels[:rows])
}

// newEvaluator starts an evaluator on the server's tester t.
func newEvaluator(t *tester) *evaluator {
	e := &evaluator{
		t:    t,
		reqs: make(chan evalSnap, 2),
		accs: make(map[int]float64),
	}
	e.cond = sync.NewCond(&e.mu)
	e.closed.Add(1)
	go e.loop()
	return e
}

func (e *evaluator) loop() {
	defer e.closed.Done()
	for req := range e.reqs {
		acc := e.t.accuracy(req.params)
		paramsPool.put(req.params) // snapshot consumed; recycle it
		e.mu.Lock()
		e.accs[req.round] = acc
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// submit queues round's snapshot (the evaluator takes ownership of params).
// Blocks only when the evaluator is more than one round behind.
func (e *evaluator) submit(round int, params []float64) {
	e.reqs <- evalSnap{round: round, params: params}
}

// wait blocks until round's submitted evaluation is done and returns it.
func (e *evaluator) wait(round int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if acc, ok := e.accs[round]; ok {
			return acc
		}
		e.cond.Wait()
	}
}

// drain waits for every submitted evaluation to finish and stops the
// goroutine. The accumulated results remain readable via take.
func (e *evaluator) drain() {
	close(e.reqs)
	e.closed.Wait()
}

// take returns the accuracy computed for round (after drain, every
// submitted round is present).
func (e *evaluator) take(round int) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	acc, ok := e.accs[round]
	return acc, ok
}

// exportAccs returns a copy of every published accuracy. Snapshot calls
// it after recorder.syncEvals, so the map is complete through the last
// submitted round; unlike drain it leaves the goroutine running and the
// run resumable.
func (e *evaluator) exportAccs() map[int]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]float64, len(e.accs))
	for r, a := range e.accs {
		out[r] = a
	}
	return out
}

// preload publishes previously computed accuracies into a fresh
// evaluator — Resume's path for the rounds evaluated before the
// snapshot, which finalize folds into the accuracy series exactly as if
// this process had computed them.
func (e *evaluator) preload(accs map[int]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for r, a := range accs {
		e.accs[r] = a
	}
}
