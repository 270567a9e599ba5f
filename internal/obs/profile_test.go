package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var sink [][]byte

func TestProfilesWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	var p Profiles
	fs := flag.NewFlagSet("prog", flag.ContinueOnError)
	p.Register(fs)
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	sink = nil
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: err %v, want a non-empty profile", path, err)
		}
	}
	// Only the first call acts: a deferred second one must not write the
	// heap profile again or stop a CPU profile that is no longer its own.
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Error("a second stop wrote the heap profile again")
	}
}

func TestProfilesOffByDefault(t *testing.T) {
	var p Profiles
	p.Register(flag.NewFlagSet("prog", flag.ContinueOnError))
	if p != (Profiles{}) {
		t.Fatalf("defaults %+v, want both profiles off", p)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesReportAnUnwritablePath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	if _, err := (&Profiles{CPU: missing}).Start(); err == nil {
		t.Error("-cpuprofile into a missing directory: no error")
	}
	stop, err := (&Profiles{Mem: missing}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("-memprofile into a missing directory: no error")
	}
}
