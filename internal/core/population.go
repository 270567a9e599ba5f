package core

import "repro/internal/prng"

// population is the scheduler-facing registry of the client fleet. The
// asynchronous event loop only ever needs a few words per client — is it
// busy, when was it last dispatched — and at 100k+ clients chasing those
// through per-client structs costs a cache miss per touch. The registry
// therefore keeps them in struct-of-arrays form: flat slices indexed by
// client ID, sized once at construction, so the dispatch path allocates
// nothing and scans nothing. Everything derivable — latency bases, device
// speeds, network profiles, fault classes — is regenerated on demand from
// seed streams keyed by client ID instead of being materialized here;
// the per-client footprint of the registry itself is 12 bytes.
type population struct {
	idle idleSet
	// dispatches[k] counts client k's dispatches; the per-client staleness
	// state itself (round of last participation) lives on the Client,
	// because an in-flight update's dispatch round must survive the
	// client being re-dispatched before the update merges.
	dispatches []int32
}

func newPopulation(n int) *population {
	return &population{
		idle:       newIdleSet(n),
		dispatches: make([]int32, n),
	}
}

// dispatched records that client id was sent out and removes it from the
// idle set. The job itself is tracked by the event heap's client index,
// not here.
func (p *population) dispatched(id int) {
	p.idle.remove(id)
	p.dispatches[id]++
}

// arrived returns client id to the idle set when it is still online (an
// offline client rejoins the idle set at its rejoin event instead).
func (p *population) arrived(id int, online bool) {
	if online {
		p.idle.add(id)
	}
}

// participants returns how many distinct clients have been dispatched at
// least once, and the total number of dispatches.
func (p *population) participants() (distinct int, total int64) {
	for _, d := range p.dispatches {
		if d > 0 {
			distinct++
			total += int64(d)
		}
	}
	return distinct, total
}

// idleSet supports the three operations the dispatcher hammers — pick a
// uniformly random idle client, mark it busy, mark it idle again — each in
// O(1). It is the classic dense set with a position index: ids holds the
// idle clients in arbitrary order, pos[id] is id's slot in ids (-1 when
// busy).
type idleSet struct {
	ids []int32
	pos []int32
}

func newIdleSet(n int) idleSet {
	s := idleSet{ids: make([]int32, n), pos: make([]int32, n)}
	for i := 0; i < n; i++ {
		s.ids[i] = int32(i)
		s.pos[i] = int32(i)
	}
	return s
}

// size returns the number of idle clients.
func (s *idleSet) size() int { return len(s.ids) }

// pick returns a uniformly random idle client without removing it, or
// (0, false) when everyone is busy. It consumes exactly one rng draw, so
// the dispatch stream stays aligned across refactors of the set's
// internals.
func (s *idleSet) pick(rng *prng.Rand) (int, bool) {
	if len(s.ids) == 0 {
		return 0, false
	}
	return int(s.ids[rng.Intn(len(s.ids))]), true
}

// remove marks id busy. Removing an already-busy id is a no-op.
func (s *idleSet) remove(id int) {
	p := s.pos[id]
	if p < 0 {
		return
	}
	last := s.ids[len(s.ids)-1]
	s.ids[p] = last
	s.pos[last] = p
	s.ids = s.ids[:len(s.ids)-1]
	s.pos[id] = -1
}

// add marks id idle again. Adding an already-idle id is a no-op.
func (s *idleSet) add(id int) {
	if s.pos[id] >= 0 {
		return
	}
	s.pos[id] = int32(len(s.ids))
	s.ids = append(s.ids, int32(id)) // never reallocates: cap is the population size
}
