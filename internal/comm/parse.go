package comm

import (
	"repro/internal/core"
	"repro/internal/spec"
)

var transportFamily = spec.Family{Label: "transport", Empty: "none", Forms: []spec.Form{
	{Name: "none", Alone: true}, {Name: "f32"}, {Name: "lossless"},
	{Name: "q", Glued: true}, {Name: "topk", Min: 1, Max: 1}, {Name: "randk", Min: 1, Max: 1},
	{Name: "ef", Pos: spec.Mod},
}}

// ParseTransport builds a transport from a spec (grammar: internal/spec):
// a base, optionally "+"-composed with the ef modifier.
//
//	none             no transport (analytic float32 byte accounting; also "")
//	f32              dense float32 round-trip (measured bytes)
//	lossless         identity shipping at float64 width
//	q<bits>          delta-coded uplink, uniform <bits>-bit quantization
//	topk:<ratio>     delta-coded uplink, keep ceil(ratio*n) largest entries
//	randk:<ratio>    delta-coded uplink, keep ceil(ratio*n) random entries
//	+ef              error feedback: accumulate what the codec dropped
//	                 (valid only after q/topk/randk)
//
// Examples: "topk:0.01+ef", "randk:0.05", "q8+ef". Returns (nil, nil)
// for "none"/"".
func ParseTransport(text string) (core.Transport, error) {
	ts, err := transportFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	base, ef := ts[0], len(ts) > 1 // ef is the one modifier and does not repeat
	var cod codec
	switch base.Name {
	case "none":
		return nil, nil
	case "f32", "lossless":
		if ef {
			return nil, transportFamily.Errorf(text, "error feedback requires a lossy compressor (q/topk/randk)")
		}
		return newTransport(base.Name, nil, false, base.Name == "lossless"), nil
	case "q":
		bits := base.Args[0]
		if bits < 1 || bits > 16 {
			return nil, transportFamily.Errorf(text, "quantization bits %g outside [1,16]", bits)
		}
		cod = quantCodec{bits: int(bits)}
	default:
		ratio := base.Args[0]
		if !(ratio > 0 && ratio <= 1) {
			return nil, transportFamily.Errorf(text, "keep ratio %g outside (0,1]", ratio)
		}
		cod = topKCodec{ratio: ratio}
		if base.Name == "randk" {
			cod = randKCodec{ratio: ratio}
		}
	}
	name := cod.term().String()
	if ef {
		name = spec.Join(name, "ef")
	}
	return newTransport(name, cod, ef, false), nil
}
