package algos_test

import "repro/internal/core"

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d core.FleetDist, err error) core.FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}
