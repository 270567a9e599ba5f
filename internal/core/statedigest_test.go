package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/prng"
)

// stateDigest resumes stream under spec and fingerprints the run it
// holds, whatever the stream's layout: the global model, the selection
// and latency streams, the churn section (its stream and sequence, the
// segment permutation and counts, the two clocks, the event heap in array
// order and the rejoin groups; the policy is stateless, and the fault
// assignment is derived again and checked on read), the adversary
// streams, then per client its rows — as
// Client.State returns them, rebuilt where they are held as a recipe —
// its error-feedback row as PeekResid returns it, its stream position,
// LastRound and FLOPs, then the pending jobs in heap and buffer order
// (each upload widened, whatever form the run holds it in),
// the recorder and the clock. A noise stream no fault has drawn yet and
// a client the run has not built enter as they would once derived. Two
// streams that resume to one run state have one digest, so a format
// change that must move no state can be pinned against digests taken
// before it.
func stateDigest(stream []byte, spec RunSpec) (string, error) {
	rs, err := Resume(bytes.NewReader(stream), ResumeSpec{Spec: spec})
	if err != nil {
		return "", err
	}
	defer rs.Close()
	s := rs.s
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	vec := func(v []float64) {
		u64(uint64(len(v)))
		for _, x := range v {
			f64(x)
		}
	}
	i32s := func(v []int32) {
		u64(uint64(len(v)))
		for _, x := range v {
			i64(int64(x))
		}
	}
	pos := func(st prng.State) {
		u64(st.S)
		f64(st.Spare)
		if st.HasSpare {
			u64(1)
		} else {
			u64(0)
		}
	}
	vec(s.global)
	pos(s.rng.State())
	pos(s.latRng.State())
	if ch := s.churn; ch != nil {
		pos(ch.rng.State())
		i64(ch.seq)
		i32s(ch.order)
		i64(int64(ch.nUp))
		i64(int64(ch.nDown))
		i64(int64(ch.nSusp))
		f64(ch.nextDrop)
		f64(ch.nextRejoin)
		i64(int64(len(ch.h.es)))
		for _, e := range ch.h.es {
			f64(e.at)
			i64(e.seq)
			i64(int64(e.id))
			u64(uint64(e.kind))
		}
		i64(int64(len(ch.groups)))
		for _, g := range ch.groups {
			i32s(g)
		}
	}
	for id, rng := range s.advRng {
		switch {
		case rng != nil:
			pos(rng.State())
		case s.faults[id] == faultNoise:
			pos(seedStreamN(s.spec.Seed, streamAdvNoise, id).State()) // its first fault draws it
		}
	}
	np := len(s.global)
	for _, c := range s.Clients() {
		i64(int64(c.ID))
		rows := c.StateBytes() / 8 / np
		i64(int64(rows))
		if rows > 0 {
			vec(c.State(rows))
		}
		vec(rs.PeekResid(c))
		pos(c.RNG().State())
		i64(int64(c.LastRound))
		i64(c.Counter.Total())
	}
	for _, d := range s.pop.dispatches {
		i64(int64(d))
	}
	for _, id := range s.pop.idle.ids {
		i64(int64(id))
	}
	r := rs.run
	i64(int64(r.seq))
	for _, js := range [][]*trainJob{r.inflight.js, r.buffer} {
		i64(int64(len(js)))
		for _, j := range js {
			i64(int64(j.c.ID))
			i64(int64(j.round))
			f64(j.finish)
			i64(int64(j.seq))
			i64(int64(j.steps))
			f64(j.speed)
			f64(j.remaining)
			if j.dropped {
				u64(1)
			} else {
				u64(0)
			}
			i64(j.flops)
			i64(j.downBytes)
			i64(j.upBytes)
			i64(int64(j.update.ClientID))
			vec(j.update.Vector(nil))
			i64(int64(j.update.NumSamples))
			i64(int64(j.update.Steps))
			f64(j.update.TrainLoss)
		}
	}
	rec, res := s.rec, s.rec.res
	i64(int64(res.Rounds))
	for _, series := range [][]float64{res.TrainLoss, res.GFLOPsByRound, res.SimTimeByRound, res.MeanStalenessByRound} {
		vec(series)
	}
	for _, v := range res.CommBytesByRound {
		i64(v)
	}
	i64(int64(res.DroppedUpdates))
	i64(int64(res.RejectedUpdates))
	i64(rec.wirePending)
	f64(rec.lastAcc)
	for _, e := range rec.evals {
		i64(int64(e.round))
		f64(e.acc)
	}
	i64(s.flopsTotal)
	f64(s.now)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
