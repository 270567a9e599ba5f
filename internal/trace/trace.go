// Package trace collects per-round, per-client telemetry from federated
// runs: training loss, the global-local divergence ||w_k - w^{t-1}||, and
// the current-historical distance ||w_k^t - w_k^prev|| — exactly the two
// quantities FedTrip's triplet term manipulates (paper Fig. 3). The
// collector plugs into core.Config.OnUpdates and can export CSV for
// external plotting.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/tensor"
)

// ClientRound is one client's telemetry for one participating round.
type ClientRound struct {
	Round    int
	ClientID int
	// TrainLoss is the client's mean local training loss this round.
	TrainLoss float64
	// GlobalDist is ||w_k^t - w^{t-1}||: how far local training moved the
	// model from the global model it started from.
	GlobalDist float64
	// HistDist is ||w_k^t - w_k^prev||: distance to the model this client
	// uploaded at its previous participation (NaN at first participation).
	HistDist float64
}

// RoundStats aggregates one round across its selected clients.
type RoundStats struct {
	Round          int
	Clients        int
	MeanLoss       float64
	MeanGlobalDist float64
	// MeanHistDist averages over clients that had a history (0 count ->
	// NaN).
	MeanHistDist float64
}

// Collector accumulates telemetry. It is safe for the single-threaded
// OnUpdates callback plus concurrent reads after the run.
type Collector struct {
	mu   sync.Mutex
	rows []ClientRound
	// prev holds each client's previous upload, overwritten in place at
	// its next participation; cur is the upload being read.
	prev map[int][]float64
	cur  []float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{prev: make(map[int][]float64)}
}

// Hook returns the function to install as core.Config.OnUpdates.
func (c *Collector) Hook() func(round int, globalBefore []float64, updates []core.Update) {
	return func(round int, globalBefore []float64, updates []core.Update) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := range updates {
			u := &updates[i]
			c.cur = u.Vector(c.cur)
			row := ClientRound{
				Round:      round,
				ClientID:   u.ClientID,
				TrainLoss:  u.TrainLoss,
				GlobalDist: math.Sqrt(tensor.DistSq(c.cur, globalBefore)),
				HistDist:   math.NaN(),
			}
			prev, ok := c.prev[u.ClientID]
			if ok {
				row.HistDist = math.Sqrt(tensor.DistSq(c.cur, prev))
			}
			c.prev[u.ClientID] = append(prev[:0], c.cur...)
			c.rows = append(c.rows, row)
		}
	}
}

// Rows returns the collected telemetry in arrival order.
func (c *Collector) Rows() []ClientRound {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ClientRound(nil), c.rows...)
}

// Summary aggregates per round, sorted by round.
func (c *Collector) Summary() []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	byRound := map[int]*RoundStats{}
	histCount := map[int]int{}
	for _, r := range c.rows {
		s, ok := byRound[r.Round]
		if !ok {
			s = &RoundStats{Round: r.Round}
			byRound[r.Round] = s
		}
		s.Clients++
		s.MeanLoss += r.TrainLoss
		s.MeanGlobalDist += r.GlobalDist
		if !math.IsNaN(r.HistDist) {
			s.MeanHistDist += r.HistDist
			histCount[r.Round]++
		}
	}
	out := make([]RoundStats, 0, len(byRound))
	for round, s := range byRound {
		n := float64(s.Clients)
		s.MeanLoss /= n
		s.MeanGlobalDist /= n
		if hc := histCount[round]; hc > 0 {
			s.MeanHistDist /= float64(hc)
		} else {
			s.MeanHistDist = math.NaN()
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// TailMeans averages the per-round mean distances over the last k rounds
// (skipping NaN history entries); used by the Fig. 3 mechanism experiment.
func (c *Collector) TailMeans(k int) (globalDist, histDist float64) {
	sum := c.Summary()
	if len(sum) == 0 {
		return math.NaN(), math.NaN()
	}
	lo := len(sum) - k
	if lo < 0 {
		lo = 0
	}
	var g, h float64
	var ng, nh int
	for _, s := range sum[lo:] {
		g += s.MeanGlobalDist
		ng++
		if !math.IsNaN(s.MeanHistDist) {
			h += s.MeanHistDist
			nh++
		}
	}
	if ng > 0 {
		globalDist = g / float64(ng)
	} else {
		globalDist = math.NaN()
	}
	if nh > 0 {
		histDist = h / float64(nh)
	} else {
		histDist = math.NaN()
	}
	return globalDist, histDist
}

// WriteCSV exports the raw rows (round, client, loss, global_dist,
// hist_dist).
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "client", "train_loss", "global_dist", "hist_dist"}); err != nil {
		return err
	}
	for _, r := range c.Rows() {
		hist := ""
		if !math.IsNaN(r.HistDist) {
			hist = strconv.FormatFloat(r.HistDist, 'g', 8, 64)
		}
		rec := []string{
			strconv.Itoa(r.Round),
			strconv.Itoa(r.ClientID),
			strconv.FormatFloat(r.TrainLoss, 'g', 8, 64),
			strconv.FormatFloat(r.GlobalDist, 'g', 8, 64),
			hist,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: csv: %w", err)
	}
	return nil
}
