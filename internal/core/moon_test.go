package core_test

import (
	"repro/internal/algos"
	"repro/internal/core"
)

// Package core's own tests cannot import algos, which imports core; this
// external test file hands them the registry's MOON before any test runs.
func init() {
	core.NewMOON = func() core.Algorithm {
		m, err := algos.Parse("moon")
		if err != nil {
			panic(err)
		}
		return m
	}
}
