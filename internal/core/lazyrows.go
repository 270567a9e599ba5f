// Lazy rows: what a participation writes, held as the recipe that
// rebuilds it.
//
// A run that merges fewer updates than its fleet has clients sees most
// participants once or a few times. FedTrip's w_hist and MOON's previous
// model are written at every participation and read only at the next,
// so most are never read — yet kept, they were most of the run's heap.
// What the method writes is a pure function of what the client trained
// from: what it received at its model version, its stream position, its
// step budget, its LastRound (0 at a first participation) and the rows
// its previous participation wrote (none at a first). So in the regime
// every participation of a client whose rows are not stored is kept as
// a rowRecipe — 48 bytes beside a reference to its version — linked to
// the client's previous one: a chain, whose replay, oldest first, with
// the previous link's round as LastRound and the rows it left in engine
// scratch, rebuilds the rows bit for bit. The chain is replayed:
//
//   - at the client's next dispatch, by its own job, before it trains
//     (trainClient), which records the new participation on top of it as
//     the chain's next link, so a method never reads a row it did not
//     write: a client dispatched n times replays n(n-1)/2 links in all;
//   - by Client.State called from outside a round, on the loaner engine;
//     the rows are then stored like any other client's, and the chain is
//     dropped.
//
// Both transfers of a link's round are the transport's codec run again,
// through Coder, which counts nothing. What the client received is its
// version's global through the codec's downlink for (client, round),
// derived afresh at every replay into the engine's downlink buffer
// (received). Under error feedback every upload also updated a residual
// row, and it too is a pure function of the chain: the trained
// parameters with the client's fault applied, less what the client
// received, plus the row the previous upload left, through the codec's
// uplink for (client, round). So the chain stands for it as well: the
// replay codes each link's upload again into engine scratch (recode),
// and the recorded upload updates that row there in place. A noise
// fault draws from the client's own stream right after training, so a
// replay, which restores the link's stream position before it trains,
// draws the same noise again. A transport without a Coder leaves nothing
// to replay a round with: its run keeps every row dense.
//
// A snapshot carries the chains as they are (since FTRS 14): each
// version a recipe pins is written once, in the stream's round-image
// section, and each client's chain inline in its walk, counted and
// oldest first, each link as its image's place there, stream position,
// step budget, row count and round; a residual the chain rebuilds is
// written empty. A snapshot therefore replays nothing, and a resumed run
// holds the chains an uninterrupted one holds.
//
// A replay is not training: its FLOPs meter nowhere, nothing goes over
// the wire and no transport counter moves, and the client's stream
// position, FLOP counter and LastRound are what they were.
//
// The version is the snapshot of the global the buffered loop takes
// anyway (globalSnap), pinned by a reference per link; behind the
// lock-step gate, a round that records takes one of s.global into the
// same table, the same way (Server.hold). A version is held as what its
// clients receive: under a float32 downlink (every comm transport but
// lossless) the float32 image of the global, in blocks it shares with
// the other versions held wherever their bits are the same, from which
// DownCode derives the same downlink bit for bit; otherwise a copy of
// the global. A transport may still send each client something else,
// and DownCode derives it per client. The vector, or the blocks no other
// version holds, go back with the version's last reference.
package core

import (
	"slices"

	"repro/internal/prng"
)

// rowRecipe is one participation's rows as what rebuilds them, and a
// link of its client's chain.
type rowRecipe struct {
	img   *globalSnap // the version the client trained from, pinned
	rng   prng.State  // the client's stream before it trained
	steps int32       // the dispatch's step budget (0: none)
	rows  int32       // how many rows the method wrote
	round int32       // the participation's round
	prev  int32       // 1 + the slot of the client's previous link, 0 for its first
}

// rowStore is a fleet's recipes, reached by every client through its
// loaner. Recipes are kept and dropped on the event loop (or, between
// steps, by whoever drives the run); a job that replays a chain works
// from its own copy of the links, so the shards read no more of the
// store than what is fixed when the run is built (run, coder).
type rowStore struct {
	// on: participations are recorded (lazyRows holds for the spec, the
	// transport, if any, has a Coder, and the method has been seen to
	// write rows).
	on  bool
	run *bufferedRunner // unpins a recipe's version
	// coder is the transport's uncounted codec, which replays a recipe's
	// transfers; nil without a transport.
	coder Coder
	// recipes is a slab, indexed by Client.recipe-1 and rowRecipe.prev-1;
	// free lists its empty slots.
	recipes []rowRecipe
	free    []int32
	// chain is scratch for a chain walked outside a job: rebuilt, or
	// written by a snapshot.
	chain []rowRecipe
}

// lazyRows reports whether sp's method rows become recipe chains:
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

// keep makes rec the newest link of c's chain, on top of rec.prev,
// pinning its version.
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

// links returns the chain whose newest link is at head, oldest first, in
// dst's storage.
func (st *rowStore) links(head int32, dst []rowRecipe) []rowRecipe {
	dst = dst[:0]
	for at := head; at != 0; at = st.recipes[at-1].prev {
		dst = append(dst, st.recipes[at-1])
	}
	slices.Reverse(dst)
	return dst
}

// take hands c's chain to the job that will record its next
// participation: the links, oldest first, in dst's storage, and the
// newest one's place, which the new link goes on top of (settle). The
// links stay in the store, pinning their versions, and c holds none
// while the job runs.
func (st *rowStore) take(c *Client, dst []rowRecipe) (head int32, chain []rowRecipe) {
	head, c.recipe = c.recipe, 0
	return head, st.links(head, dst)
}

// drop frees the chain whose newest link is at head, unpinning each
// link's version.
func (st *rowStore) drop(head int32) {
	for at := head; at != 0; {
		rec := &st.recipes[at-1]
		st.run.unpin(rec.img)
		st.free = append(st.free, at-1)
		at, *rec = rec.prev, rowRecipe{}
	}
}

// rebuild stores c's rows dense, and under a transport its
// error-feedback row, replayed on the engine c has (the loaner outside a
// round), and drops the chain.
func (st *rowStore) rebuild(c *Client) {
	head := c.recipe
	st.chain = st.links(head, st.chain)
	c.recipe = 0
	e := c.engine()
	st.replay(c, e, st.chain)
	c.state = make([]float64, int(e.rowsAsked)*c.NumParams())
	copy(c.state, e.rowScratch)
	if len(e.residRow) > 0 {
		c.resid = append([]float64(nil), e.residRow...)
	}
	st.drop(head)
}

// replay runs chain's participations again on e, attached to c, oldest
// first, and leaves what the newest wrote in e's scratch: its rows in
// rowScratch (rowsAsked of them, as many as the method writes, whatever
// count a recipe claims), and, under a transport, c's error-feedback
// row in residRow — empty until an upload stored one. An empty chain
// leaves both empty. Each link trains from what the client received at
// its pinned version, from its recorded stream position, under its step
// budget, with the previous link's round as LastRound and its rows as
// the method's. Nothing is sent or metered, and c's stream, FLOP counter
// and LastRound are left as they were.
func (st *rowStore) replay(c *Client, e *engine, chain []rowRecipe) {
	e.rowsAsked, e.residRow = 0, e.residRow[:0]
	if len(chain) == 0 {
		return
	}
	round, counter, rng := c.LastRound, c.Counter, c.RNG()
	live := rng.State()
	c.Counter = nil
	e.meter(nil)
	c.LastRound = 0
	e.record()
	for i := range chain {
		link := &chain[i]
		global := st.received(c, e, link)
		rng.SetState(link.rng)
		c.train(int(link.round), global, int(link.steps))
		if st.coder != nil {
			st.recode(c, e, link)
		}
		c.LastRound = int(link.round)
	}
	e.recorded()
	rng.SetState(live)
	c.LastRound = round
	c.Counter = counter
	e.meter(counter)
}

// recode codes link's upload again, uncounted, after its replay on e:
// the trained parameters the replay left in e's model, with c's fault
// applied (a noise fault draws from c's stream where the replay's
// training left it, as the upload's did), against what the client
// received, which the replay left in e's downlink buffer, updating e's
// residual row in place. The model's parameters are the upload's buffer:
// the engine's next round loads its own.
func (st *rowStore) recode(c *Client, e *engine, link *rowRecipe) {
	u := Update{Params: e.model.Params()}
	st.run.s.applyFault(c, &u)
	st.coder.UpCode(u.Params, c.ID, int(link.round), u.Params, e.downlinkBuf(len(u.Params)), &e.residRow)
}

// received is what c received at link's version: its global, or under a
// transport that global through the codec's downlink for (client,
// round), uncounted, written into e's downlink buffer.
func (st *rowStore) received(c *Client, e *engine, link *rowRecipe) []float64 {
	if st.coder == nil {
		return link.img.vec
	}
	recv := e.downlinkBuf(link.img.size())
	st.coder.DownCode(recv, c.ID, int(link.round), link.img.source(recv))
	return recv
}

// image is the version c trained from in round, when a link of its
// chain records that participation, and nil otherwise. Every dispatch of
// one round trains from one version, so any link of the round names it.
func (st *rowStore) image(c *Client, round int) *globalSnap {
	for at := c.recipe; at != 0; at = st.recipes[at-1].prev {
		if rec := &st.recipes[at-1]; int(rec.round) == round {
			return rec.img
		}
	}
	return nil
}

// settle is the event loop's half of a joined job's rows: a recorded
// participation becomes the newest link of the client's chain. A method
// that wrote no row turns recording off.
func (st *rowStore) settle(j *trainJob) {
	if !j.record {
		return
	}
	j.record = false
	if j.recRows == 0 {
		st.on = false
		return
	}
	st.keep(j.c, rowRecipe{img: j.gsnap, rng: j.recRng, steps: int32(j.steps), rows: j.recRows, round: int32(j.round), prev: j.head})
}
