package core

import "fmt"

// What the external tests read of the parameter pool: the buffers checked
// out now and the most at once since ResetPoolPeak.
func PoolCheckouts() (out, peak int) { return paramsPool.checkouts() }

func ResetPoolPeak() { paramsPool.resetPeak() }

// Fingerprint is the text a snapshot of the run is stamped with.
func (sp *RunSpec) Fingerprint(numParams int) string { return sp.fingerprint(numParams) }

// HoldRowsDense keeps every method row dense, as a run outside the lazy
// regime does; call it before the first Step.
func (rs *RunState) HoldRowsDense() { rs.s.rows.on = false }

// QueuedBuffers counts the pooled vectors a closed run's queued jobs hold:
// their dense uploads, and once each the model versions their sparse ones
// were taken against or a recipe pins, with a version's kept downlink. It
// errs unless those versions are exactly the snapshots the runner still
// has out.
func (rs *RunState) QueuedBuffers() (int, error) {
	r := rs.run
	held, versions := 0, map[*globalSnap]bool{}
	for _, rec := range rs.s.rows.recipes {
		if rec.img != nil {
			versions[rec.img] = true
		}
	}
	for _, js := range [][]*trainJob{r.inflight.js, r.buffer} {
		for _, j := range js {
			if j.update.pooled {
				held++
			}
			if !j.sparse {
				continue
			}
			if j.gsnap == nil || &j.global[0] != &j.gsnap.vec[0] {
				return 0, fmt.Errorf("a sparse job of round %d holds no snapshot of its version", j.round)
			}
			versions[j.gsnap] = true
		}
	}
	live := 0
	for _, sn := range r.snaps {
		if sn.vec != nil {
			live++
		}
		if sn.recv != nil {
			held++
		}
	}
	if r.cur != nil || live != len(versions) {
		return 0, fmt.Errorf("%d snapshots out (current %t), %d referenced by sparse jobs", live, r.cur != nil, len(versions))
	}
	return held + len(versions), nil
}

// Lazy reports whether c's rows are held as a recipe.
func (c *Client) Lazy() bool { return c.recipe != 0 }

// PeekState returns c's rows without changing how the run holds them: a
// recipe's replayed on the loaner engine, or the stored rows, copied.
func (c *Client) PeekState() []float64 {
	if c.recipe == 0 {
		return append([]float64(nil), c.state...)
	}
	st := c.loan.rows
	return append([]float64(nil), st.replay(c, c.engine(), &st.recipes[c.recipe-1])...)
}

// PeekResid returns c's error-feedback row without changing how the run
// holds it: the row c holds, copied, or, when c holds none, its rows are
// a recipe and the transport has an unmetered codec, the row its one
// participation stored, rebuilt: the round replayed on the loaner
// engine, the client's fault applied to the trained parameters, and the
// upload coded again against what its version received. A noise
// client's fault drew from a stream that has moved on since, so its row
// is always the one it holds.
func (rs *RunState) PeekResid(c *Client) []float64 {
	s := rs.s
	coder, ok := s.wire.(interface {
		UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64
	})
	noise := s.faults != nil && s.faults[c.ID] == faultNoise
	if c.resid != nil || c.recipe == 0 || !ok || noise {
		return append([]float64(nil), c.resid...)
	}
	st := c.loan.rows
	rec := &st.recipes[c.recipe-1]
	e := c.engine()
	st.replay(c, e, rec)
	u := Update{Params: append([]float64(nil), e.model.Params()...)}
	s.applyFault(c, &u)
	var row []float64
	coder.UpCode(u.Params, c.ID, c.LastRound, u.Params, rec.img.received(), &row)
	return row
}

// Quiesce joins every job still training, as Snapshot does first, so the
// clients can be read between steps.
func (rs *RunState) Quiesce() { rs.run.quiesce() }

// HoldsResid reports whether c keeps an error-feedback row.
func (c *Client) HoldsResid() bool { return c.resid != nil }

// Noisy reports whether c's fault draws noise from a stream of its own.
func (rs *RunState) Noisy(c *Client) bool {
	return rs.s.faults != nil && rs.s.faults[c.ID] == faultNoise
}
