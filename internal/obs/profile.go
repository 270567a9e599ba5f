// Package obs holds what lets a run be looked at from outside without
// changing it. It imports only the standard library and nothing of the
// runtime, so nothing here can reach a seed stream or a trajectory.
package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile / -memprofile flag pair every long-running
// binary registers. Both are off when empty; neither touches a run's
// random streams, so a run's digest is the same with them on or off.
type Profiles struct {
	CPU, Mem string
}

// Register adds the two flags to fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file when the work is done, while its state is still held")
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that finishes both: it stops the CPU profile and writes the
// heap profile after a collection, so inuse_space is what is reachable at
// that moment — call it while the state of interest still is. Only the
// first call acts, so a caller can defer stop for its error paths and
// still call it at the moment it chose. With neither flag set Start does
// nothing and stop returns nil.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // nothing was written
			return nil, fmt.Errorf("-cpuprofile %s: %w", p.CPU, err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if p.Mem != "" {
			if herr := writeHeapProfile(p.Mem); err == nil {
				err = herr
			}
		}
		return err
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports as of the last completed collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() // already failing
		return fmt.Errorf("-memprofile %s: %w", path, err)
	}
	return f.Close()
}
