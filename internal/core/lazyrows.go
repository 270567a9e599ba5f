// Lazy rows: what a first participation writes, held as the recipe that
// rebuilds it.
//
// A run that merges fewer updates than its fleet has clients sees most
// participants once. FedTrip's w_hist and MOON's previous model are
// written at every participation but read only at the next one, so most
// of those rows are written and never read — yet they were most of the
// run's heap. At a first participation LastRound is 0 (FedTrip's xi is 0,
// MOON's previous model is the global), so what the method writes there
// is a pure function of what the client trained from: what it received
// at its model version, its stream position and its step budget. The
// client keeps those instead — a rowRecipe, 40 bytes beside a reference
// to its version — and the row is rebuilt, bit for bit, by running the
// round again:
//
//   - at the client's next dispatch, by its own job, before it trains
//     (trainClient), so a method never reads a row it did not write;
//   - by Client.State called from outside a round, on the loaner engine.
//
// Under error feedback that first upload also stored a residual row, and
// it too is a pure function of the round: the trained parameters with
// the client's fault applied, less what the version received, through
// the codec for (client, round). So the recipe stands for it as well:
// the recorded upload writes its row into engine scratch, and a rebuild
// runs the transport's codec again after the replay (recode), through
// UpCoder, which counts nothing. Two clients keep the row instead: one
// under a transport without that codec, and one whose fault draws noise
// from a stream of its own, which has moved on by the time of a replay
// (residLazy).
//
// A snapshot carries the recipes as they are (since FTRS 10): each
// version a recipe pins is written once, in the stream's round-image
// section, and each recipe as its image's place there, stream position,
// step budget and row count; a residual the recipe rebuilds is written
// empty (since FTRS 12). A snapshot therefore replays nothing, and a
// resumed run holds the recipes an uninterrupted one holds.
//
// A replay is not training: its FLOPs meter nowhere, nothing goes over
// the wire and no transport counter moves, and the client's stream
// position, FLOP counter and LastRound are what they were.
//
// The version is the snapshot of the global the buffered loop takes
// anyway (globalSnap), pinned by a reference per recipe; behind the
// lock-step gate, a round that records copies s.global once into the
// same table. Under a transport the version also keeps what its
// recording jobs received: the first one's downlink, which every later
// one must match bit for bit (keepDownlink) — a transport that sends the
// clients of one version different vectors leaves the rest of them
// dense. A replay trains from that image, so it neither transfers nor
// counts a downlink. A version's vectors go back to the pool with its
// last reference.
package core

import (
	"math"

	"repro/internal/prng"
)

// rowRecipe is a first participation's rows as what rebuilds them; the
// round is the client's LastRound.
type rowRecipe struct {
	img   *globalSnap // the version the client trained from, pinned
	rng   prng.State  // the client's stream before it trained
	steps int32       // the dispatch's step budget (0: none)
	rows  int32       // how many rows the method wrote
}

// rowStore is a fleet's recipes, reached by every client through its
// loaner. Recipes are kept and taken on the event loop (or, between
// steps, by whoever drives the run); a job that rebuilds a row works
// from its own copy of the recipe, so the shards read no more of the
// store than what is fixed when the run is built (run, coder).
type rowStore struct {
	// on: first participations are recorded (lazyRows holds for the
	// spec, and the method has been seen to write rows).
	on  bool
	run *bufferedRunner // unpins a recipe's version
	// coder is the transport's unmetered codec, which rebuilds a
	// recipe's error-feedback row; nil keeps every row (residLazy).
	coder UpCoder
	// recipes is a slab, indexed by Client.recipe-1; free lists its
	// empty slots.
	recipes []rowRecipe
	free    []int32
}

// lazyRows reports whether sp's first-participation rows become recipes:
// the run merges fewer updates than it has clients (Rounds × m < N, m the
// round size behind the gate and the merge threshold ungated), and it is
// snapshottable — no server-side method state and no transport state, so
// a round can be run again from what the client and its version hold.
func lazyRows(sp *RunSpec) bool {
	if _, ok := sp.Algo.(Aggregator); ok {
		return false
	}
	if _, ok := sp.Algo.(PreRounder); ok {
		return false
	}
	if _, ok := sp.Transport.(StatefulTransport); ok {
		return false
	}
	m := sp.ClientsPerRound
	if sp.Runtime == RuntimeAsync {
		m = sp.Policy.k
	}
	return sp.Rounds*m < len(sp.Parts)
}

// keep makes rec c's recipe, pinning its version.
func (st *rowStore) keep(c *Client, rec rowRecipe) {
	rec.img.refs++
	n := len(st.free)
	if n == 0 {
		st.recipes = append(st.recipes, rec)
		c.recipe = int32(len(st.recipes))
		return
	}
	slot := st.free[n-1]
	st.free = st.free[:n-1]
	st.recipes[slot] = rec
	c.recipe = slot + 1
}

// take removes c's recipe and returns it, with its pin on the version.
func (st *rowStore) take(c *Client) rowRecipe {
	slot := c.recipe - 1
	rec := st.recipes[slot]
	st.recipes[slot] = rowRecipe{}
	st.free = append(st.free, slot)
	c.recipe = 0
	return rec
}

// rebuild stores c's recipe rows dense, replayed on the engine c has
// (the loaner outside a round), and drops the recipe.
func (st *rowStore) rebuild(c *Client) {
	rec := st.take(c)
	st.restore(c, c.engine(), &rec)
	st.run.unpin(rec.img)
}

// restore stores rec's rows as c's own, replayed on e, and the
// error-feedback row its upload stored when the recipe stands for that
// too.
func (st *rowStore) restore(c *Client, e *engine, rec *rowRecipe) {
	rows := st.replay(c, e, rec)
	c.state = make([]float64, len(rows))
	copy(c.state, rows)
	if st.residLazy(c) {
		st.recode(c, e, rec, &c.resid)
	}
}

// residLazy reports whether the error-feedback row of c's first
// participation, when a recipe stands for its rows, is rebuilt with them
// rather than kept: under a transport with an unmetered codec, unless
// c's fault draws from a stream of its own (noise), which has moved on
// by the time of a replay.
func (st *rowStore) residLazy(c *Client) bool {
	faults := st.run.s.faults
	return st.coder != nil && (faults == nil || faults[c.ID] != faultNoise)
}

// recode codes c's first upload again, unmetered, after a replay of rec
// on e: the trained parameters replay left in e's model, with c's fault
// applied, against what the version received, into *resid. The model's
// parameters are the upload's buffer: the engine's next round loads its
// own.
func (st *rowStore) recode(c *Client, e *engine, rec *rowRecipe, resid *[]float64) {
	u := Update{Params: e.model.Params()}
	st.run.s.applyFault(c, &u)
	st.coder.UpCode(u.Params, c.ID, c.LastRound, u.Params, rec.img.received(), resid)
}

// replay runs rec's round again on e, attached to c, and returns the
// rows the method wrote, in e's scratch until its next recording: from
// what the client received at the pinned version, from the recorded
// stream position, under the recorded step budget, with LastRound 0 as
// it was. Nothing is sent or metered, and c's stream, FLOP counter and
// LastRound are left as they were. The rows are as many as the method
// writes, whatever count the recipe claims.
func (st *rowStore) replay(c *Client, e *engine, rec *rowRecipe) []float64 {
	round, counter, rng := c.LastRound, c.Counter, c.RNG()
	live := rng.State()
	c.Counter = nil
	e.meter(nil)
	c.LastRound = 0
	rng.SetState(rec.rng)
	e.record()
	c.train(round, rec.img.received(), int(rec.steps))
	rows := e.recorded()
	rng.SetState(live)
	c.LastRound = round
	c.Counter = counter
	e.meter(counter)
	return e.rowScratch[:int(rows)*c.NumParams()]
}

// received is what a client that trained from version sn received: the
// version's global, or under a transport the downlink its recording jobs
// kept.
func (sn *globalSnap) received() []float64 {
	if sn.recv != nil {
		return sn.recv
	}
	return sn.vec
}

// keepDownlink offers down, what a job recording a first participation
// at version sn received under a transport, as the version's downlink:
// the first is kept, and a later one must equal it bit for bit. false
// (the transport sent this client something else) leaves the job's rows
// dense. Jobs call it from the shards, concurrently; recv, once set, is
// only read until the version is freed.
func (sn *globalSnap) keepDownlink(down []float64) bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.recv == nil {
		sn.recv = paramsPool.getCopy(down)
		return true
	}
	for i, x := range down {
		if math.Float64bits(x) != math.Float64bits(sn.recv[i]) {
			return false
		}
	}
	return true
}

// settle is the event loop's half of a joined job's rows: a replayed
// recipe's pin is dropped, and a recorded first participation becomes
// the client's recipe. A method that wrote no row turns recording off.
func (st *rowStore) settle(j *trainJob) {
	if j.replay.img != nil {
		st.run.unpin(j.replay.img)
		j.replay = rowRecipe{}
	}
	if !j.record {
		return
	}
	j.record = false
	if j.recRows == 0 {
		st.on = false
		return
	}
	st.keep(j.c, rowRecipe{img: j.gsnap, rng: j.recRng, steps: int32(j.steps), rows: j.recRows})
}
