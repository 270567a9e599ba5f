package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/prng"
)

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d FleetDist, err error) FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}

// The non-finite spellings: each family must refuse every one of them
// with its own error, which names the text.
var nonFinite = map[string][]string{
	"latency": {"const:inf", "uniform:0,inf", "uniform:inf,inf", "exp:inf", "lognormal:inf,1", "lognormal:0,inf",
		"straggler:1,inf,3", "straggler:inf,inf,3", "straggler:1,4,inf", "const:nan", "lognormal:nan,1", "lognormal:0,nan"},
	"device-dist": {"uniform:1,inf", "uniform:inf,inf", "lognormal:inf,1", "lognormal:0,inf", "tiered:inf,1", "tiered:1,inf",
		"uniform:nan,1", "tiered:1,nan"},
	"bandwidth-dist": {"const:10,25,inf", "uniform:5,inf", "uniform:5,50,inf", "lognormal:inf,0.5", "lognormal:3,inf",
		"lognormal:3,0.5,inf", "tiered:10,40,inf,1", "tiered:10,40,20,inf", "const:nan,1", "const:10,25,nan"},
}

// Finite arguments whose largest draw overflows a float64: each family
// refuses them with its "wants finite" error, which names the bound.
var overflowing = map[string][]string{
	"latency":        {"lognormal:1000,0", "lognormal:0,60", "lognormal:700,1", "exp:1e308", "exp:5e306", "straggler:1,1.7e308,3"},
	"device-dist":    {"lognormal:1000,0", "lognormal:0,60"},
	"bandwidth-dist": {"lognormal:700,0", "lognormal:0,60,5", "const:1e303,10", "uniform:5,1e303", "tiered:10,1e303,20,1"},
}

func TestFleetParsersRefuseOverflowingDraws(t *testing.T) {
	parsers := map[string]func(string) (FleetDist, error){"latency": ParseLatency, "device-dist": ParseDeviceDist, "bandwidth-dist": ParseNetDist}
	for label, specs := range overflowing {
		for _, text := range specs {
			d, err := parsers[label](text)
			if err == nil {
				t.Errorf("%s %q accepted as %s", label, text, d)
				continue
			}
			if want := label + ` "` + text + `": wants finite`; !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "MaxFloat64") {
				t.Errorf("%s %q: error %q, want it to start %q and name the MaxFloat64 bound", label, text, err, want)
			}
		}
	}
}

// Every fleet spec the tests spell: the round-trip seeds of
// internal/runtext, the rows of TestFleetDigestsPinned and the parse
// tables' accepted forms, then the non-finite spellings.
var (
	latencySpecs = append([]string{
		"", "zero", "const:0", "const:2", "uniform:0,0", "uniform:0.5,2", "exp:1.5", "lognormal:0,0.5", "lognormal:-1,0",
		"straggler:1,4,3", "straggler:1,10,5", "straggler:2,2,1", "straggler:1,10,3.5",
		"lognormal:709,0", "lognormal:0,59", "exp:4e306", "straggler:1,1.6e308,3",
	}, append(nonFinite["latency"], overflowing["latency"]...)...)
	deviceSpecs = append([]string{
		"", "none", "uniform:0.5,2", "uniform:1,1", "lognormal:0,0.6", "lognormal:-0.2,0", "lognormal:0.25,0.00125",
		"lognormal:0,3", "tiered", "tiered:0.5,0.5,2,0.5", "tiered:1,1", "lognormal:709,0",
	}, append(nonFinite["device-dist"], overflowing["device-dist"]...)...)
	netSpecs = append([]string{
		"", "none", "const:10,25", "const:10,25,30", "const:inf,inf,0", "const:inf,25,5", "uniform:5,50", "uniform:5,50,20",
		"uniform:5,5,20", "lognormal:3,0.5", "lognormal:-1,0,40", "lognormal:-8,3", "tiered", "tiered:10,40,20,1",
		"tiered:1,2,0,0.5,8,16,0,0.5", "tiered:inf,inf,0,1", "lognormal:695,0", "lognormal:0,57,5",
		"const:1e302,10", "uniform:5,1e302",
	}, append(nonFinite["bandwidth-dist"], overflowing["bandwidth-dist"]...)...)
)

func TestFleetParsersRefuseNonFinite(t *testing.T) {
	parsers := map[string]func(string) (FleetDist, error){"latency": ParseLatency, "device-dist": ParseDeviceDist, "bandwidth-dist": ParseNetDist}
	for label, specs := range nonFinite {
		for _, text := range specs {
			d, err := parsers[label](text)
			if err == nil {
				t.Errorf("%s %q accepted as %s", label, text, d)
				continue
			}
			if want := label + ` "` + text + `": wants finite`; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s %q: error %q, want it to start %q", label, text, err, want)
			}
		}
	}
}

// Whatever the three parsers accept draws, for 1,000 clients, a finite
// non-negative latency, a speed inside the clamp range, a positive
// bandwidth (infinite only where the text says inf) and a finite
// non-negative RTT — the values the virtual clock is advanced by.
func TestFleetDrawsStayInRange(t *testing.T) {
	accepted := 0
	for _, text := range latencySpecs {
		d, err := ParseLatency(text)
		if err != nil {
			continue
		}
		accepted++
		rng := prng.New(1)
		for id := 0; id < 1000; id++ {
			if v := d.duration(id, rng); !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("latency %q: client %d drew %g", text, id, v)
			}
		}
	}
	for _, text := range deviceSpecs {
		d, err := ParseDeviceDist(text)
		if err != nil || d.None() {
			continue
		}
		accepted++
		var scratch prng.Rand
		for id := 0; id < 1000; id++ {
			if v := d.speed(id, 5, &scratch); !(v >= minDeviceSpeed && v <= maxDeviceSpeed) {
				t.Fatalf("device-dist %q: client %d drew speed %g", text, id, v)
			}
		}
	}
	for _, text := range netSpecs {
		d, err := ParseNetDist(text)
		if err != nil || d.None() {
			continue
		}
		accepted++
		var scratch prng.Rand
		for id := 0; id < 1000; id++ {
			l := d.link(id, 5, &scratch)
			for _, bps := range []float64{l.upBps, l.downBps} {
				if !(bps > 0) || math.IsInf(bps, 1) && !strings.Contains(text, "inf") {
					t.Fatalf("bandwidth-dist %q: client %d drew %+v", text, id, l)
				}
			}
			if !(l.rtt >= 0) || math.IsInf(l.rtt, 0) {
				t.Fatalf("bandwidth-dist %q: client %d drew %+v", text, id, l)
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d specs accepted: the property checks too little", accepted)
	}
}

// A FleetDist carries the grammar that parsed it. In another knob's field
// it is refused — even where the text would parse there too — and the
// error names both grammars; each value validates in its own field.
func TestFleetDistInWrongFieldRefused(t *testing.T) {
	parsers := []struct {
		label string
		parse func(string) (FleetDist, error)
		set   func(*RunSpec, FleetDist)
	}{
		{"latency", ParseLatency, func(sp *RunSpec, d FleetDist) { sp.Latency = d }},
		{"device-dist", ParseDeviceDist, func(sp *RunSpec, d FleetDist) { sp.Devices = d }},
		{"bandwidth-dist", ParseNetDist, func(sp *RunSpec, d FleetDist) { sp.Network = d }},
	}
	for _, text := range []string{"uniform:0.5,2", "lognormal:0,0.5", "tiered", "const:10,25"} {
		for _, from := range parsers {
			d, err := from.parse(text)
			if err != nil || d.None() {
				continue
			}
			for _, into := range parsers {
				sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync}
				into.set(&sp, d)
				err := sp.Validate()
				switch {
				case into.label == from.label && err != nil:
					t.Errorf("%s %q rejected in its own field: %v", from.label, text, err)
				case into.label != from.label && (err == nil || !strings.Contains(err.Error(), "the "+into.label+" field holds the "+from.label+" spec")):
					t.Errorf("%s %q in the %s field: %v", from.label, text, into.label, err)
				}
			}
		}
	}
}
