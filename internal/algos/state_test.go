package algos

import (
	"testing"

	"repro/internal/core"
)

// TestPersistentStateBytes measures what each method keeps per client
// between participations — the resource side of the paper's Table 1
// "information utilization" classification. After a 3-round lock-step run
// every participant holds exactly rows x |w| float64s of Client.State, and
// a client never selected holds nothing, whatever the method.
func TestPersistentStateBytes(t *testing.T) {
	rows := map[string]int{
		"fedavg":   0,
		"fedprox":  0,
		"slowmo":   0,
		"mimelite": 0,
		"fedgkd":   0,
		"fednova":  0,
		"fedtrip":  1, // w_hist
		"moon":     1, // the previous local model
		"feddyn":   1, // h_k
		"feddane":  1, // the local full gradient
		"scaffold": 2, // c_k and delta-c
	}
	if len(rows) != len(Names()) {
		t.Fatalf("%d rows for %d registry methods", len(rows), len(Names()))
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			algo, err := Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(t, algo)
			cfg.ClientsPerRound = 1 // 3 rounds select at most 3 of the 6 clients
			rs, err := core.NewRunState(core.RunSpec{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if _, err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			var idle int
			for _, c := range rs.Server().Clients() {
				want := 8 * rows[name] * c.NumParams()
				if c.LastRound == 0 {
					want, idle = 0, idle+1
				}
				if got := c.StateBytes(); got != want {
					t.Errorf("client %d (last round %d) holds %d state bytes, want %d", c.ID, c.LastRound, got, want)
				}
			}
			if idle == 0 {
				t.Fatal("every client participated: the never-selected row is untested")
			}
		})
	}
}
