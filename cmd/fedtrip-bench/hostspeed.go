package main

import (
	"math/rand"
	"time"
)

// The reference box is a shared microVM. Its vCPUs are host threads that
// land next to other guests as the host pleases, and for seconds or for
// minutes at a time everything on it — the set-up builds included — takes
// 10-70 % longer. setup_s is the one host-time metric the driver gates, on
// the medians of two sets of runs taken half an hour apart, so it is the
// one that has to survive such a shift: every timed build is bracketed by
// two readings of how fast the host is at that moment, taken on fixed work
// that belongs to the benchmark, and reported at reference speed —
// measured time x reference reading / mean of its two readings. Over 480
// set-ups in 40 minutes the median of five builds ranged from 416 to
// 772 ms as the clock read it (coefficient of variation 20.5 %; medians of
// ten consecutive set-ups 1.70x apart, 27.7 % from one ten to the next);
// corrected, 3.9 %, 1.065x and 4.5 % (README.md, "Noise").

// speedProbe times a fixed slice of the kind of work a build is: nearly
// all of a build is data.Generate drawing one normal deviate per pixel, so
// a reading draws normal deviates from math/rand — the standard library's,
// no code of this repository — and accumulates them into a 4 MiB buffer,
// on one thread, as a build does.
type speedProbe struct {
	rng *rand.Rand
	buf []float64
}

const (
	probeReps = 24
	// referenceMS is what a reading takes on the reference box when it is
	// quiet (the 10th percentile of 2 880 readings there). On another
	// machine the correction settles at another constant factor; what
	// matters is that it is the same for the parent commit and the change.
	referenceMS = 79.0
)

// newSpeedProbe returns a probe whose first reading, discarded here, has
// paid the first touch of its buffer.
func newSpeedProbe() *speedProbe {
	p := &speedProbe{rng: rand.New(rand.NewSource(1)), buf: make([]float64, 1<<19)}
	p.read()
	return p
}

// read returns how long the slice takes now, in milliseconds.
func (p *speedProbe) read() float64 {
	start := time.Now()
	for r := 0; r < probeReps; r++ {
		for i := range p.buf {
			p.buf[i] += p.rng.NormFloat64() * 0.3
		}
	}
	return ms(time.Since(start))
}

// atReferenceSpeed brings a duration measured between two readings to
// reference speed: a host on which the slice takes a quarter longer than
// referenceMS reports 0.8 of what the clock read.
func atReferenceSpeed(measured, readingBefore, readingAfter float64) float64 {
	return measured * referenceMS / ((readingBefore + readingAfter) / 2)
}
