package core

import "fmt"

// What the external tests read of the parameter pool: the buffers checked
// out now and the most at once since ResetPoolPeak.
func PoolCheckouts() (out, peak int) { return paramsPool.checkouts() }

func ResetPoolPeak() { paramsPool.resetPeak() }

// Fingerprint is the text a snapshot of the run is stamped with.
func (sp *RunSpec) Fingerprint(numParams int) string { return sp.fingerprint(numParams) }

// QueuedBuffers counts the pooled vectors a closed run's queued jobs hold:
// their dense uploads, and once each the model versions their sparse ones
// were taken against. It errs unless those versions are exactly the
// snapshots the runner still has out.
func (rs *RunState) QueuedBuffers() (int, error) {
	r := rs.run
	held, versions := 0, map[*globalSnap]bool{}
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
	for i := range r.snaps {
		if r.snaps[i].vec != nil {
			live++
		}
	}
	if r.cur != nil || live != len(versions) {
		return 0, fmt.Errorf("%d snapshots out (current %t), %d referenced by sparse jobs", live, r.cur != nil, len(versions))
	}
	return held + len(versions), nil
}
