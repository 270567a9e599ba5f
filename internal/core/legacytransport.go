package core

import "fmt"

// legacyTransport runs a Transport that predates WireTransport — the
// benchmark's trace wrapper, test fakes — behind the runtime's one call
// path: it calls the allocating methods and copies their results into
// dst. sized is the same transport when it reports per-transfer bytes;
// otherwise a transfer is priced at the analytic dense float32 size. It
// is built in one place (wireTransport) and deleted, with Transport,
// SizedTransport and MeteredTransport, by ROADMAP item 1's deletion,
// after its benchmark re-baseline.
type legacyTransport struct {
	t     Transport
	sized SizedTransport
}

// wireTransport resolves Config.Transport to the interface the runtime
// calls, once per run: nil stays nil (a zero-copy hand-off), a
// WireTransport is used directly, anything else is adapted.
func wireTransport(t Transport) WireTransport {
	if t == nil {
		return nil
	}
	if w, ok := t.(WireTransport); ok {
		return w
	}
	sized, _ := t.(SizedTransport)
	return &legacyTransport{t: t, sized: sized}
}

func (l *legacyTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	if l.sized != nil {
		enc, wire := l.sized.DownSized(clientID, round, global)
		return copyTransfer(dst, enc, wire)
	}
	return copyTransfer(dst, l.t.Down(clientID, round, global), int64(4*len(global)))
}

// UpInto drops ref: a legacy transport that codes deltas remembered its
// own Down result.
func (l *legacyTransport) UpInto(dst []float64, clientID, round int, params, ref []float64) int64 {
	if l.sized != nil {
		enc, wire := l.sized.UpSized(clientID, round, params)
		return copyTransfer(dst, enc, wire)
	}
	return copyTransfer(dst, l.t.Up(clientID, round, params), int64(4*len(params)))
}

// copyTransfer moves a legacy transport's result into the runtime's
// buffer (never adopting a foreign slice into the pool) and passes wire
// through.
func copyTransfer(dst, enc []float64, wire int64) int64 {
	if len(enc) != len(dst) {
		panic(fmt.Sprintf("core: transport returned %d parameters for a transfer of %d", len(enc), len(dst)))
	}
	copy(dst, enc)
	return wire
}
