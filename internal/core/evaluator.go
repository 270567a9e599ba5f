package core

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// evaluator computes test accuracy off the event loop, one round at a
// time: the loop hands it a snapshot of the global parameters and keeps
// training, and the recorder joins that evaluation before it submits the
// next. At EvalEvery=1 round t evaluates while round t+1 trains and
// merges, and at most one evaluation — one |w| snapshot — is ever
// outstanding.
type evaluator struct {
	reqs chan []float64 // unbuffered: a submit waits for the goroutine
	accs chan float64   // one slot: the outstanding evaluation's accuracy
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
// Server.EvaluateGlobal (callable from an OnRound hook while an evaluation
// is outstanding) take turns under mu.
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
	e := &evaluator{reqs: make(chan []float64), accs: make(chan float64, 1)}
	go func() {
		defer close(e.accs)
		for params := range e.reqs {
			acc := t.accuracy(params)
			paramsPool.put(params) // snapshot consumed; recycle it
			e.accs <- acc
		}
	}()
	return e
}

// submit hands the evaluator a snapshot, which it takes ownership of. The
// previous submission must have been joined.
func (e *evaluator) submit(params []float64) { e.reqs <- params }

// join waits for the outstanding evaluation and returns its accuracy.
func (e *evaluator) join() float64 { return <-e.accs }

// stop ends an evaluator with nothing outstanding and returns once its
// goroutine has exited.
func (e *evaluator) stop() {
	close(e.reqs)
	<-e.accs
}
