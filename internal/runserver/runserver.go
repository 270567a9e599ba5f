// Package runserver turns a steppable federated run (core.RunState) into
// a long-lived service: a Controller owns the step loop on one goroutine
// and exposes live progress over HTTP — current round, metrics series,
// the per-client trace, and an on-demand checkpoint of the whole run.
//
// Concurrency model: RunState is single-goroutine by contract, so the
// controller never lets HTTP handlers touch it directly. Handlers that
// need run state post a closure onto a boundary-request channel; the step
// loop drains the channel between rounds, where the run is at a
// serializable round boundary by construction. GET /status reads a
// published copy under a mutex and costs the loop nothing. After the loop
// exits (run done or context cancelled) requests execute inline under the
// same serialization, so /checkpoint keeps working on a finished or
// interrupted run — exactly what graceful shutdown needs.
package runserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// Status is the cheap live view served at GET /status.
type Status struct {
	// Algorithm, Runtime, and Policy identify the run. Policy is the
	// resolved policy's full text, arguments and guards included
	// ("fedbuff:0.5+maxstale:8"), as in the banner and the fingerprint.
	Algorithm string `json:"algorithm"`
	Runtime   string `json:"runtime"`
	Policy    string `json:"policy"`
	// Round is the number of completed rounds (buffered aggregations in
	// the async runtime) out of TotalRounds.
	Round       int  `json:"round"`
	TotalRounds int  `json:"total_rounds"`
	Done        bool `json:"done"`
	// LastAccuracy is the most recent evaluated test accuracy (0 before
	// the first evaluation lands); BestAccuracy is the best so far.
	LastAccuracy float64 `json:"last_accuracy"`
	BestAccuracy float64 `json:"best_accuracy"`
	// SimTime is the virtual clock in simulated seconds (async runtimes).
	SimTime float64 `json:"sim_time"`
	// Offline counts currently unavailable clients (churn runs).
	Offline int `json:"offline"`
	// DroppedUpdates counts updates lost to permanently dropped clients.
	DroppedUpdates int `json:"dropped_updates"`
	// Error carries the run's failure (divergence) once the loop stops.
	Error string `json:"error,omitempty"`
}

// Controller drives a RunState to completion while serving boundary-safe
// requests from HTTP handlers.
type Controller struct {
	rs    *core.RunState
	trace *trace.Collector // optional; nil = no /trace endpoint data

	reqs     chan func()
	finished chan struct{}
	execMu   sync.Mutex // serializes inline execution after the loop exits

	mu sync.Mutex
	st Status
}

// New wraps a run. collector may be nil; when set, /trace serves its CSV.
func New(rs *core.RunState, collector *trace.Collector) *Controller {
	c := &Controller{
		rs:       rs,
		trace:    collector,
		reqs:     make(chan func(), 16),
		finished: make(chan struct{}),
	}
	c.st = c.snapStatus()
	return c
}

// Run executes the step loop until the run completes or ctx is cancelled.
// On completion it returns the finished Result. On cancellation it
// returns (nil, ctx.Err()) with the run stopped at a round boundary —
// still snapshotable via Checkpoint for graceful shutdown. The caller
// owns rs.Close.
func (c *Controller) Run(ctx context.Context) (*core.Result, error) {
	defer func() {
		close(c.finished)
		// Anything enqueued after the final drain but before finished
		// closed would otherwise hang its handler.
		for {
			select {
			case f := <-c.reqs:
				f()
			default:
				return
			}
		}
	}()
	for {
	drain:
		for {
			select {
			case f := <-c.reqs:
				f()
			default:
				break drain
			}
		}
		select {
		case <-ctx.Done():
			c.publish(func(st *Status) {})
			return nil, ctx.Err()
		default:
		}
		done, err := c.rs.Step()
		if err != nil {
			c.publish(func(st *Status) { st.Error = err.Error(); st.Done = true })
			return c.rs.Result(), err
		}
		if done {
			res := c.rs.Finish()
			c.publish(func(st *Status) { st.Done = true })
			return res, nil
		}
		c.publish(func(st *Status) {})
	}
}

// snapStatus reads the run at a boundary (loop goroutine or inline).
func (c *Controller) snapStatus() Status {
	rs, res := c.rs, c.rs.Result()
	st := Status{
		Algorithm:      rs.Spec().Algo.Name(),
		Runtime:        string(rs.Spec().Runtime),
		Policy:         rs.Spec().Policy.String(),
		Round:          rs.Round(),
		TotalRounds:    rs.Spec().Rounds,
		Done:           rs.Done(),
		BestAccuracy:   res.BestAccuracy,
		SimTime:        rs.Now(),
		Offline:        rs.Offline(),
		DroppedUpdates: res.DroppedUpdates,
		LastAccuracy:   rs.LastAccuracy(),
	}
	if st.LastAccuracy > st.BestAccuracy {
		// BestAccuracy in the live Result lags until Finish assembles the
		// series; the latest evaluation is a tighter live lower bound.
		st.BestAccuracy = st.LastAccuracy
	}
	return st
}

// publish refreshes the served status from the run, then applies mutate.
func (c *Controller) publish(mutate func(*Status)) {
	st := c.snapStatus()
	mutate(&st)
	c.mu.Lock()
	c.st = st
	c.mu.Unlock()
}

// do runs f at a round boundary and waits for it: through the request
// channel while the loop runs, inline (serialized by execMu) once it has
// exited. The request channel is buffered, so a send can succeed even
// after the loop's final drain; the once-guard lets the caller execute
// its own request inline in that case without risking a double run.
func (c *Controller) do(f func()) {
	done := make(chan struct{})
	var once sync.Once
	wrapped := func() {
		once.Do(func() {
			c.execMu.Lock()
			defer c.execMu.Unlock()
			f()
			close(done)
		})
	}
	select {
	case c.reqs <- wrapped:
		select {
		case <-done:
		case <-c.finished:
			wrapped()
		}
	case <-c.finished:
		wrapped()
	}
}

// Status returns the latest published status.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Checkpoint serializes the run into w at the next round boundary.
func (c *Controller) Checkpoint(w *bytes.Buffer) error {
	var err error
	c.do(func() { err = c.rs.Snapshot(w) })
	return err
}

// Handler returns the HTTP surface:
//
//	GET /status      cheap JSON progress (never blocks the loop)
//	GET /metrics     full metric series as JSON, NaN/±Inf as null (boundary request)
//	GET /trace       per-client round telemetry CSV (404 without -trace)
//	GET /checkpoint  binary run snapshot, resumable with -resume
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		var err error
		c.do(func() { body, err = json.Marshal(finite(reflect.ValueOf(c.rs.Result()))) })
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if c.trace == nil {
			http.Error(w, "no trace collector configured (run with -trace)", http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		var err error
		// Boundary request: OnUpdates fires mid-step, so serializing the
		// CSV between steps guarantees whole-round rows.
		c.do(func() { err = c.trace.WriteCSV(&buf) })
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := c.Checkpoint(&buf); err != nil {
			http.Error(w, fmt.Sprintf("checkpoint: %v", err), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="run.ckpt"`)
		w.Write(buf.Bytes())
	})
	return mux
}

// finite returns v as encoding/json sees it, with every NaN or infinite
// float replaced by nil, so that it marshals as null instead of failing
// the whole document: a run whose merge screen rejects diverged uploads
// carries on with NaN losses in its series. Structs become maps of their
// exported fields.
func finite(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return finite(v.Elem())
		}
	case reflect.Slice:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = finite(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := make(map[string]any, v.NumField())
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				out[f.Name] = finite(v.Field(i))
			}
		}
		return out
	}
	return v.Interface()
}
