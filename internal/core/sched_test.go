package core

import (
	"container/heap"
	"sort"
	"testing"

	"repro/internal/prng"
)

func job(finish float64, seq, clientID int) *trainJob {
	return &trainJob{c: &Client{ID: clientID}, finish: finish, seq: seq}
}

// The heap must deliver jobs in (finish, seq) order regardless of push
// order.
func TestJobHeapOrdering(t *testing.T) {
	var h jobHeap
	jobs := []*trainJob{
		job(5, 0, 0), job(1, 1, 1), job(3, 2, 2), job(1, 3, 3),
		job(0.5, 4, 4), job(3, 5, 5), job(7, 6, 6), job(0.5, 7, 7),
	}
	for _, j := range jobs {
		heap.Push(&h, j)
	}
	want := append([]*trainJob(nil), jobs...)
	sort.SliceStable(want, func(i, k int) bool { return jobLess(want[i], want[k]) })
	for i, w := range want {
		got := heap.Pop(&h).(*trainJob)
		if got != w {
			t.Fatalf("pop %d: finish=%v seq=%d, want finish=%v seq=%d", i, got.finish, got.seq, w.finish, w.seq)
		}
	}
	if h.Len() != 0 || h.peek() != nil {
		t.Fatal("drained heap must be empty")
	}
}

// Ties on both finish and seq break by client index, so a replay is
// deterministic even for jobs that are otherwise indistinguishable.
func TestJobHeapTieBreakByClientIndex(t *testing.T) {
	var h jobHeap
	for _, id := range []int{4, 0, 3, 1, 2} {
		heap.Push(&h, job(2.0, 9, id))
	}
	for want := 0; want < 5; want++ {
		if got := heap.Pop(&h).(*trainJob).c.ID; got != want {
			t.Fatalf("tie pop returned client %d, want %d", got, want)
		}
	}
}

// Interleaved pushes and pops (the event loop's actual access pattern)
// against an exact mirror: every pop must return the jobLess-minimum of
// everything currently queued.
func TestJobHeapInterleaved(t *testing.T) {
	rng := prng.New(8)
	var h jobHeap
	var mirror []*trainJob
	seq := 0
	for step := 0; step < 3000; step++ {
		if len(mirror) == 0 || rng.Intn(2) == 0 {
			// A coarse finish grid forces plenty of ties through the
			// seq tie-break.
			j := job(float64(rng.Intn(20)), seq, seq)
			seq++
			heap.Push(&h, j)
			mirror = append(mirror, j)
		} else {
			best := 0
			for i := 1; i < len(mirror); i++ {
				if jobLess(mirror[i], mirror[best]) {
					best = i
				}
			}
			want := mirror[best]
			mirror = append(mirror[:best], mirror[best+1:]...)
			got := heap.Pop(&h).(*trainJob)
			if got != want {
				t.Fatalf("step %d: popped (finish=%v seq=%d), want (finish=%v seq=%d)",
					step, got.finish, got.seq, want.finish, want.seq)
			}
			if got.heapIdx != -1 {
				t.Fatal("popped job still carries a heap index")
			}
		}
		if h.Len() != len(mirror) {
			t.Fatalf("heap len %d want %d", h.Len(), len(mirror))
		}
	}
}

// The idle set must pick only idle clients, uniformly, and report
// exhaustion when everyone is busy.
func TestIdleSetPickRemoveAdd(t *testing.T) {
	const n = 10
	s := newIdleSet(n)
	rng := prng.New(3)
	if s.size() != n {
		t.Fatalf("size %d", s.size())
	}
	// Partially busy: remove the even ids; picks must all be odd.
	for id := 0; id < n; id += 2 {
		s.remove(id)
	}
	for trial := 0; trial < 200; trial++ {
		id, ok := s.pick(rng)
		if !ok {
			t.Fatal("pick failed with idle clients present")
		}
		if id%2 == 0 {
			t.Fatalf("picked busy client %d", id)
		}
	}
	// All busy: pick must fail.
	for id := 1; id < n; id += 2 {
		s.remove(id)
	}
	if _, ok := s.pick(rng); ok {
		t.Fatal("pick succeeded with everyone busy")
	}
	if s.size() != 0 {
		t.Fatalf("size %d after removing all", s.size())
	}
	// Releasing brings clients back; duplicates are no-ops.
	s.add(4)
	s.add(4)
	if s.size() != 1 {
		t.Fatalf("size %d after re-adding one client twice", s.size())
	}
	id, ok := s.pick(rng)
	if !ok || id != 4 {
		t.Fatalf("pick after release: %d %v", id, ok)
	}
	s.remove(4)
	s.remove(4) // no-op
	if s.size() != 0 {
		t.Fatal("double remove corrupted the set")
	}
}

// Every idle client must be reachable: over many draws a partially busy
// population yields each idle id.
func TestIdleSetCoversAllIdle(t *testing.T) {
	const n = 32
	s := newIdleSet(n)
	rng := prng.New(5)
	busy := map[int]bool{}
	for id := 0; id < n; id += 3 {
		s.remove(id)
		busy[id] = true
	}
	seen := map[int]bool{}
	for trial := 0; trial < 5000; trial++ {
		id, ok := s.pick(rng)
		if !ok {
			t.Fatal("pick failed")
		}
		if busy[id] {
			t.Fatalf("picked busy client %d", id)
		}
		seen[id] = true
	}
	for id := 0; id < n; id++ {
		if !busy[id] && !seen[id] {
			t.Fatalf("idle client %d never picked in 5000 draws", id)
		}
	}
}

// pickAvailable through a live run: all-busy and partially-busy
// populations behave like the registry promises, and every pick consumes
// exactly one selection draw.
func TestPickAvailableBusyStates(t *testing.T) {
	rs, err := NewRunState(asyncTestSpec(t, NewFedTrip(0.4)))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	a := rs.s
	n := len(a.clients)
	// Fully idle: picks succeed and land in range.
	for trial := 0; trial < 50; trial++ {
		id, ok := a.pop.idle.pick(a.rng)
		if !ok || id < 0 || id >= n {
			t.Fatalf("pick %d ok=%v", id, ok)
		}
	}
	// Partially busy: mark half the fleet dispatched.
	for id := 0; id < n/2; id++ {
		a.pop.dispatched(id)
	}
	for trial := 0; trial < 50; trial++ {
		id, ok := a.pop.idle.pick(a.rng)
		if !ok {
			t.Fatal("pick failed with idle clients present")
		}
		if id < n/2 {
			t.Fatalf("picked dispatched client %d", id)
		}
	}
	// All busy: pick reports exhaustion.
	for id := n / 2; id < n; id++ {
		a.pop.dispatched(id)
	}
	if _, ok := a.pop.idle.pick(a.rng); ok {
		t.Fatal("pick succeeded with the whole fleet in flight")
	}
	// Arrivals free clients again.
	a.pop.arrived(2, true)
	id, ok := a.pop.idle.pick(a.rng)
	if !ok || id != 2 {
		t.Fatalf("pick after arrival: %d %v", id, ok)
	}
}

// The registry's dispatch counters and participation stats must track
// dispatches.
func TestPopulationParticipationStats(t *testing.T) {
	p := newPopulation(5)
	p.dispatched(1)
	p.arrived(1, true)
	p.dispatched(1)
	p.dispatched(4)
	distinct, total := p.participants()
	if distinct != 2 || total != 3 {
		t.Fatalf("participants %d/%d want 2/3", distinct, total)
	}
}

// Barrier mode must feed the participation registry too: a run of R
// rounds with K clients each records exactly R*K dispatches.
func TestBarrierModeRecordsParticipation(t *testing.T) {
	acfg := asyncTestSpec(t, NewFedTrip(0.4))
	acfg.Runtime = RuntimeBarrier
	rs, err := NewRunState(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Run(); err != nil {
		t.Fatal(err)
	}
	distinct, dispatches := rs.Participation()
	if want := int64(acfg.Rounds * acfg.ClientsPerRound); dispatches != want {
		t.Fatalf("dispatches %d want %d", dispatches, want)
	}
	if distinct < 1 || distinct > len(acfg.Parts) {
		t.Fatalf("distinct participants %d outside [1,%d]", distinct, len(acfg.Parts))
	}
}

// Server-side engine work outside the shard pool (FullGrad in PreRound,
// direct test access) must go through the server's single shared loaner —
// never a private per-client engine, which would rebuild the O(N*|w|)
// memory footprint this architecture removed.
func TestServerClientsShareLoanerEngine(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := s.Global()
	var engines []*engine
	for _, c := range s.Clients() {
		c.FullGrad(at)
		engines = append(engines, c.engine())
	}
	for _, e := range engines[1:] {
		if e != engines[0] {
			t.Fatal("server-side engine work is not sharing the loaner")
		}
	}
	// The loaner's FLOP metering must follow the borrower.
	c0, c1 := s.Clients()[0], s.Clients()[1]
	before := c1.Counter.Total()
	c0.FullGrad(at)
	if c1.Counter.Total() != before {
		t.Fatal("loaner credited FLOPs to the wrong client")
	}
}
