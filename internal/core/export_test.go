package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// What the external tests read of the parameter pool: the buffers checked
// out now and the most at once since ResetPoolPeak.
func PoolCheckouts() (out, peak int) { return paramsPool.checkouts() }

func ResetPoolPeak() { paramsPool.resetPeak() }

// Fingerprint is the text a snapshot of the run is stamped with.
func (sp *RunSpec) Fingerprint(numParams int) string { return sp.fingerprint(numParams) }

// HoldRowsDense keeps every method row dense, as a run outside the lazy
// regime does; call it before the first Step.
func (rs *RunState) HoldRowsDense() { rs.s.rows.on = false }

// HoldUploadsDense keeps every upload without a transport dense, as the
// runtime held them before bitmap patches; call it before the first
// Step.
func (rs *RunState) HoldUploadsDense() { rs.s.denseUploads = true }

// CheckChunks errs unless the chunks the run's store has out are
// exactly those its queued jobs' bitmap patches hold, and its patches
// out exactly those patches. Call it with the jobs joined.
func (rs *RunState) CheckChunks() error {
	st := rs.s.chunks
	if st == nil {
		return nil
	}
	chunks, patches := 0, 0
	for _, js := range [][]*trainJob{rs.run.inflight.js, rs.run.buffer} {
		for _, j := range js {
			if b := j.update.bitmap; b != nil {
				chunks += len(b.vals)
				patches++
			}
		}
	}
	built := 0
	for _, ps := range st.slabs {
		built += len(ps)
	}
	if st.out != chunks || built-len(st.patches) != patches {
		return fmt.Errorf("%d chunks and %d patches out, the queued jobs hold %d and %d", st.out, built-len(st.patches), chunks, patches)
	}
	return nil
}

// QueuedBuffers counts the pooled vectors a closed run's queued jobs hold:
// their dense uploads (float64) and their narrowed ones (float32), once
// each the model versions held at float64 that their patched ones were
// taken against, the jobs still waiting to train will train from or a
// recipe pins, and the float64
// blocks the run's bitmap patches' chunks are carved from, which a run
// closed with patches queued keeps. It errs unless
// those versions, at either width, are exactly the snapshots the runner
// still has out.
func (rs *RunState) QueuedBuffers() (wide, narrow int, err error) {
	r := rs.run
	versions := map[*globalSnap]bool{}
	for _, rec := range rs.s.rows.recipes {
		if rec.img != nil {
			versions[rec.img] = true
		}
	}
	for _, js := range [][]*trainJob{r.inflight.js, r.buffer} {
		for _, j := range js {
			if j.update.pooled {
				wide++
			}
			if j.update.narrow != nil {
				narrow++
			}
			if !j.trained && j.gsnap != nil {
				versions[j.gsnap] = true
				continue
			}
			if !j.patched() {
				continue
			}
			if j.gsnap == nil || !j.holdsVersion() {
				return 0, 0, fmt.Errorf("a sparse job of round %d holds no snapshot of its version", j.round)
			}
			versions[j.gsnap] = true
		}
	}
	live := 0
	for _, sn := range r.snaps {
		if !sn.free() {
			live++
		}
	}
	if r.cur != nil || live != len(versions) {
		return 0, 0, fmt.Errorf("%d snapshots out (current %t), %d referenced by sparse jobs", live, r.cur != nil, len(versions))
	}
	for sn := range versions {
		if sn.vec != nil {
			wide++
		}
	}
	if st := rs.s.chunks; st != nil {
		for _, b := range st.blocks {
			if b != nil {
				wide++
			}
		}
	}
	return wide, narrow, nil
}

// holdsVersion reports whether j trains from, and its patch is taken
// against, its snapshot's vector, whichever width holds it.
func (j *trainJob) holdsVersion() bool {
	if sn := j.gsnap; sn.img.n > 0 {
		return j.global == nil && j.update.base32 == &sn.img
	}
	return &j.global[0] == &j.gsnap.vec[0] && &j.update.base[0] == &j.global[0]
}

// VersionWidths counts the model versions the run holds, by width.
func (rs *RunState) VersionWidths() (wide, narrow int) {
	for _, sn := range rs.run.snaps {
		switch {
		case sn.img.n > 0:
			narrow++
		case sn.vec != nil:
			wide++
		}
	}
	return wide, narrow
}

// NarrowCheckouts is PoolCheckouts for the float32 pool narrowed uploads
// are held in.
func NarrowCheckouts() (out, peak int) { return narrowPool.checkouts() }

func ResetNarrowPeak() { narrowPool.resetPeak() }

// Lazy reports whether c's rows are held as a recipe.
func (c *Client) Lazy() bool { return c.recipe != 0 }

// PeekState returns c's rows without changing how the run holds them: a
// chain's replayed on the loaner engine (peekChain), or the stored rows,
// copied.
func (c *Client) PeekState() []float64 {
	if c.recipe == 0 {
		return append([]float64(nil), c.state...)
	}
	rows, _ := c.peekChain()
	return rows
}

// PeekResid returns c's error-feedback row without changing how the run
// holds it: the row c holds, copied, or, when c holds none, its rows are
// a chain and the transport has an uncounted codec, the row its
// participations left, rebuilt (peekChain).
func (rs *RunState) PeekResid(c *Client) []float64 {
	if c.resid != nil || c.recipe == 0 || rs.s.rows.coder == nil {
		return append([]float64(nil), c.resid...)
	}
	_, resid := c.peekChain()
	return resid
}

// peekChain rebuilds c's rows and error-feedback row from its chain on
// the loaner engine, link by link, apart from rowStore.replay: each link
// trains from what the client received, derived here again through the
// codec's downlink, from its stream position, under its step budget,
// with the previous link's round as LastRound and its rows left in
// engine scratch; then its trained parameters, with the client's fault
// applied, are coded again against what it received into a row of the
// peek's own. It returns copies of the newest link's rows and that row,
// and leaves c's stream, FLOP counter and LastRound as they were.
func (c *Client) peekChain() (rows, resid []float64) {
	st := c.loan.rows
	s := st.run.s
	e := c.engine()
	last, counter, rng := c.LastRound, c.Counter, c.RNG()
	live := rng.State()
	c.Counter = nil
	e.meter(nil)
	c.LastRound, e.rowsAsked = 0, 0
	for _, link := range st.links(c.recipe, nil) {
		global := link.img.vec
		if st.coder != nil {
			global = make([]float64, link.img.size())
			st.coder.DownCode(global, c.ID, int(link.round), link.img.source(global))
		}
		rng.SetState(link.rng)
		e.recording = true
		c.train(int(link.round), global, int(link.steps))
		e.recording = false
		if st.coder != nil {
			u := Update{Params: append([]float64(nil), e.model.Params()...)}
			s.applyFault(c, &u)
			st.coder.UpCode(u.Params, c.ID, int(link.round), u.Params, global, &resid)
		}
		c.LastRound = int(link.round)
	}
	rng.SetState(live)
	c.LastRound, c.Counter = last, counter
	e.meter(counter)
	return append([]float64(nil), e.rowScratch[:int(e.rowsAsked)*c.NumParams()]...), resid
}

// ChainDepth is how many links c's chain holds (0: its rows, if any, are
// stored).
func (c *Client) ChainDepth() int {
	return len(c.loan.rows.links(c.recipe, nil))
}

// CheckPins holds the run's model versions to what pins them: every
// version with a vector has as many references as recipe links that
// name it plus queued jobs that hold it, no link names a version without
// one, and the store's occupied slots are exactly the links the clients'
// chains reach, each once. And it holds each live version to its width:
// one vector, float32 exactly when the transport has a Coder whose
// downlink of it, coded for client 0 in round 0, is exact in float32 and
// codes to itself bit for bit (narrowable). Call it with the jobs joined.
func (rs *RunState) CheckPins() error {
	st, r := rs.s.rows, rs.run
	holds := map[*globalSnap]int{}
	occupied := 0
	for i, rec := range st.recipes {
		if rec.img == nil {
			continue
		}
		if rec.img.free() {
			return fmt.Errorf("recipe slot %d (round %d) pins a freed version", i, rec.round)
		}
		holds[rec.img]++
		occupied++
	}
	reached := map[int32]bool{}
	for _, c := range rs.s.clients {
		if c == nil {
			continue
		}
		for at := c.recipe; at != 0; at = st.recipes[at-1].prev {
			if reached[at] || st.recipes[at-1].img == nil {
				return fmt.Errorf("client %d's chain reaches slot %d, free or reached before", c.ID, at-1)
			}
			reached[at] = true
		}
	}
	if len(reached) != occupied {
		return fmt.Errorf("%d recipe slots occupied, the chains reach %d", occupied, len(reached))
	}
	for _, js := range [][]*trainJob{r.inflight.js, r.buffer} {
		for _, j := range js {
			if j.gsnap != nil {
				holds[j.gsnap]++
			}
		}
	}
	for i, sn := range r.snaps {
		if sn.free() {
			continue
		}
		if sn.refs != holds[sn] {
			return fmt.Errorf("version %d has %d references, %d links and jobs hold it", i, sn.refs, holds[sn])
		}
		if sn.vec != nil && sn.img.n > 0 {
			return fmt.Errorf("version %d is held at both widths", i)
		}
		g := sn.source(make([]float64, sn.size()))
		if narrow, want := sn.img.n > 0, narrowable(st.coder, g); narrow != want {
			return fmt.Errorf("version %d is held at float32 %t, its downlink is a float32 fixed point %t", i, narrow, want)
		}
	}
	return rs.CheckBlocks()
}

// CheckBlocks errs unless the run's block store holds exactly the
// blocks of its float32 versions: each referenced as many times as
// versions hold it, listed once at its place and nowhere else, no two
// at one place with the same bits, and every other block free.
func (rs *RunState) CheckBlocks() error {
	st := &rs.s.versions
	refs, place := map[*block32]int32{}, map[*block32]int{}
	for _, sn := range rs.run.snaps {
		for b, blk := range sn.img.blocks {
			if p, ok := place[blk]; ok && p != b {
				return fmt.Errorf("a block is held at places %d and %d", p, b)
			}
			refs[blk]++
			place[blk] = b
		}
	}
	listed := 0
	for b, head := range st.heads {
		seen := map[[chunkLen]uint32]bool{}
		for blk := head; blk != nil; blk = blk.next {
			if place[blk] != b || refs[blk] != blk.refs || blk.refs == 0 {
				return fmt.Errorf("place %d lists a block of place %d with %d references, %d versions hold it", b, place[blk], blk.refs, refs[blk])
			}
			if seen[*bitsOf(blk.v)] {
				return fmt.Errorf("place %d lists two blocks with the same bits", b)
			}
			seen[*bitsOf(blk.v)] = true
			listed++
		}
	}
	if listed != len(refs) || st.held != listed {
		return fmt.Errorf("%d blocks listed, %d counted held, the versions hold %d", listed, st.held, len(refs))
	}
	for _, blk := range st.free {
		if blk.refs != 0 || refs[blk] != 0 {
			return fmt.Errorf("a free block has %d references, %d versions hold it", blk.refs, refs[blk])
		}
	}
	return nil
}

// narrowable reports whether coder's downlink of g, for client 0 in
// round 0, is exact in float32 and codes again to itself at the same
// wire size.
func narrowable(coder Coder, g []float64) bool {
	if coder == nil {
		return false
	}
	img, again := make([]float64, len(g)), make([]float64, len(g))
	wire := coder.DownCode(img, 0, 0, g)
	if coder.DownCode(again, 0, 0, img) != wire {
		return false
	}
	for i, v := range img {
		if math.Float64bits(v) != math.Float64bits(float64(float32(v))) || math.Float64bits(again[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// Quiesce joins every job still training, as Snapshot does first, so the
// clients can be read between steps.
func (rs *RunState) Quiesce() { rs.run.quiesce() }

// HoldsResid reports whether c keeps an error-feedback row.
func (c *Client) HoldsResid() bool { return c.resid != nil }

// StateDigest fingerprints the run stream resumes to under spec
// (stateDigest).
func StateDigest(stream []byte, spec RunSpec) (string, error) { return stateDigest(stream, spec) }

// ResumePinned steps a run of build() k times, holds its snapshot stream
// to the calling test's streamPins entry (requireStreamPinned), and
// finishes the run from that stream in a second RunState.
func ResumePinned(t *testing.T, build func() RunSpec, k int) *Result {
	t.Helper()
	rs, err := NewRunState(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	err = rs.Snapshot(&buf)
	rs.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireStreamPinned(t, buf.Bytes(), build())
	rs2, err := Resume(&buf, ResumeSpec{Spec: build()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// RoundImages returns where each round image of stream, a snapshot of a
// run of spec, starts: the offset of its first float64 word.
func RoundImages(t *testing.T, stream []byte, spec RunSpec) []int {
	t.Helper()
	images, imagesEnd, np := streamLayout(t, stream, spec)
	var at []int
	for off := images + 8; off < imagesEnd; off += 8 + 8*np {
		at = append(at, off+8)
	}
	return at
}

// Dispatches is how many times each client has been sent out.
func (rs *RunState) Dispatches() []int32 { return rs.s.pop.dispatches }

// JobBound is an in-flight job's dispatch bound and arrival, and whether
// it has trained (its arrival then priced from what it metered).
type JobBound struct {
	Bound, Finish float64
	Trained       bool
}

// InFlightBounds lists the in-flight jobs' bounds, and reports whether the
// run's bounds can fall short of the priced arrival, so that pricing
// moves a trained job in the event heap.
func (rs *RunState) InFlightBounds() (jobs []JobBound, inexact bool) {
	for _, j := range rs.run.inflight.js {
		jobs = append(jobs, JobBound{j.bound, j.finish, j.trained})
	}
	return jobs, rs.run.inexact
}

// HeldVersions returns every model version the run holds for a recipe
// link or a queued job, read through the runtime's own reader
// (globalSnap.source) and copied, with the round its clients were
// dispatched in.
func (rs *RunState) HeldVersions() (rounds []int, images [][]float64) {
	read := func(round int, sn *globalSnap) {
		img := make([]float64, sn.size())
		copy(img, sn.source(img))
		rounds, images = append(rounds, round), append(images, img)
	}
	for _, rec := range rs.s.rows.recipes {
		if rec.img != nil {
			read(int(rec.round), rec.img)
		}
	}
	for _, js := range [][]*trainJob{rs.run.inflight.js, rs.run.buffer} {
		for _, j := range js {
			if j.gsnap != nil {
				read(j.round, j.gsnap)
			}
		}
	}
	return rounds, images
}

// HeldUpload is one upload a trained job holds, read back dense, and the
// form it is held in: "dense", "narrowed", "index patch" or "bitmap
// patch".
type HeldUpload struct {
	Form   string
	Vector []float64
}

// HeldUploads reads back every upload the run's trained jobs hold, in
// flight or in the policy buffer, keyed by client and dispatch sequence.
func (rs *RunState) HeldUploads() map[[2]int]HeldUpload {
	rs.run.joinTraining()
	held := map[[2]int]HeldUpload{}
	for _, js := range [][]*trainJob{rs.run.inflight.js, rs.run.buffer} {
		for _, j := range js {
			if !j.trained {
				continue
			}
			u := &j.update
			form := "dense"
			switch {
			case u.narrow != nil:
				form = "narrowed"
			case u.patch != nil:
				form = "index patch"
			case u.bitmap != nil:
				form = "bitmap patch"
			}
			held[[2]int{j.c.ID, j.seq}] = HeldUpload{form, u.Vector(nil)}
		}
	}
	return held
}
