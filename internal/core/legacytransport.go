package core

import (
	"fmt"
	"sync"
)

// legacyTransport runs a Transport that predates WireTransport — the
// benchmark's trace wrapper, test fakes — behind the runtime's one call
// path: it calls the allocating methods and copies their results into
// dst. sized is the same transport when it reports per-transfer bytes;
// otherwise a transfer is priced at the analytic dense float32 size. It
// is built in one place (wireTransport) and deleted, with Transport,
// SizedTransport and MeteredTransport, by ROADMAP item 1's deletion,
// after its benchmark re-baseline. coder is the uncounted codec of the
// transport its name spells (legacyCoders), nil for any other.
type legacyTransport struct {
	t     Transport
	sized SizedTransport
	coder Coder
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
	l := &legacyTransport{t: t, sized: sized}
	if named, ok := t.(fmt.Stringer); ok && legacyCoders != nil {
		l.coder = legacyCoders(named.String())
	}
	return l
}

// coderOf is w's uncounted codec (Coder), nil when it has none; a legacy
// transport's is the one its name spells.
func coderOf(w WireTransport) Coder {
	if l, ok := w.(*legacyTransport); ok {
		return l.coder
	}
	c, _ := w.(Coder)
	return c
}

// legacyCoders is what RegisterLegacyCoders installed.
var legacyCoders func(name string) Coder

// RegisterLegacyCoders installs how a legacy transport finds its
// uncounted codec: by the transport spec its String() prints, the name
// a run's fingerprint already holds it to. The comm package registers
// its parser, so a wrapper that offers only the legacy methods of one of
// its transports — the benchmark's tracer — replays a recipe as the
// in-place transport does, and the two routes hold the same rows. It
// goes with the adapter.
func RegisterLegacyCoders(coders func(name string) Coder) { legacyCoders = coders }

func (l *legacyTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	if l.sized != nil {
		enc, wire := l.sized.DownSized(clientID, round, global)
		return copyTransfer(dst, enc, wire)
	}
	return copyTransfer(dst, l.t.Down(clientID, round, global), int64(4*len(global)))
}

// UpInto drops ref — a legacy transport that codes deltas remembered its
// own Down result — and files resid for LegacyResidual while the legacy
// method runs.
func (l *legacyTransport) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	if len(params) > 0 {
		legacyRows.Store(&params[0], resid)
		defer legacyRows.Delete(&params[0])
	}
	if l.sized != nil {
		enc, wire := l.sized.UpSized(clientID, round, params)
		return copyTransfer(dst, enc, wire)
	}
	return copyTransfer(dst, l.t.Up(clientID, round, params), int64(4*len(params)))
}

// legacyRows carries an upload's error-feedback row across the legacy
// method set, which has no argument for it, so that the legacy route
// keeps the row where the in-place route does: in the client, walked by
// a snapshot. Without it a traced benchmark pass, whose wrapper offers
// only the legacy methods, would snapshot an error-feedback run without
// its residuals. The adapter files the row under the upload's buffer,
// which is that upload's alone while the call runs, and the transport
// behind the wrapper finds it by the same buffer. It goes with the
// adapter.
var legacyRows sync.Map // *float64, the upload's first element -> *[]float64

// LegacyResidual returns the client's error-feedback row when the
// runtime is passing params to a legacy Up or UpSized — the pointer
// WireTransport.UpInto would have received — and nil otherwise. comm's
// allocating wrappers use it.
func LegacyResidual(params []float64) *[]float64 {
	if len(params) == 0 {
		return nil
	}
	if row, ok := legacyRows.Load(&params[0]); ok {
		return row.(*[]float64)
	}
	return nil
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
