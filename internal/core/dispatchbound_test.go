package core_test

import (
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
)

// The dispatch bound of TestJobFlopsPinned's device-priced fleet, a
// boundary at a time: for FedAvg, FedProx and FedTrip, which declare what
// their attaching work meters (FedAvg none), it is the priced arrival bit
// for bit, so their runs keep no second heap layout; MOON's extra forward
// passes are not declared, so its bound is the model's passes alone and
// the arrival its trained jobs are priced at lies past it. The runtime
// itself refuses (panics at) a priced arrival before its bound, or, where
// the bound is exact, a different one, so every job of each run is
// checked, not only those in flight at a boundary.
func TestDispatchBoundIsThePricedArrival(t *testing.T) {
	for _, name := range []string{"fedavg", "fedprox", "fedtrip", "moon"} {
		t.Run(name, func(t *testing.T) {
			algo, err := algos.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := core.NewRunState(jobFlopsFleet(t, algo))
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			exact := name != "moon"
			trained, short := 0, 0
			for done := false; !done; {
				if done, err = rs.Step(); err != nil {
					t.Fatal(err)
				}
				jobs, inexact := rs.InFlightBounds()
				if inexact == exact {
					t.Fatalf("the run keeps a second heap layout: %v, want %v", inexact, !exact)
				}
				for _, j := range jobs {
					switch {
					case !j.Trained && j.Finish != j.Bound:
						t.Errorf("a job waiting to train is queued at %v, its bound %v", j.Finish, j.Bound)
					case !j.Trained:
					case j.Finish < j.Bound || exact && j.Finish != j.Bound:
						t.Errorf("a trained job arrives at %v, its dispatch bound %v", j.Finish, j.Bound)
					case j.Finish > j.Bound:
						short++
						fallthrough
					default:
						trained++
					}
				}
			}
			if trained == 0 || !exact && short == 0 {
				t.Errorf("%d trained jobs seen in flight, %d of them past their bound: the run checks nothing", trained, short)
			}
		})
	}
}

// Base is what every method embeds: were it an AttachCoster, a method
// with attaching work it did not declare would be priced at zero.
func TestBaseDeclaresNoAttachingCost(t *testing.T) {
	if _, ok := any(core.Base{}).(core.AttachCoster); ok {
		t.Fatal("core.Base implements AttachCoster")
	}
	if _, ok := any(&core.Base{}).(core.AttachCoster); ok {
		t.Fatal("*core.Base implements AttachCoster")
	}
}
