package nn

import (
	"io"

	"repro/internal/tensor"
)

// Model checkpoint format:
//
//	magic    [4]byte  "FTCK"
//	version  uint8    currently 1
//	params   tensor vector ("FTV1" + count + float64 values)
//
// The magic/version envelope lets the format grow (and lets readers say
// precisely why a file is unreadable) without guessing from the payload.
const (
	checkpointMagic   = "FTCK"
	checkpointVersion = 1
)

// checkpoint is the format, in either direction: SaveParams runs it on
// an encoder over the model's parameters, LoadParams on a decoder over a
// scratch vector of the same size.
func checkpoint(c *tensor.Codec, params []float64) error {
	c.Magic(checkpointMagic)
	c.Version(checkpointVersion)
	c.Vector("parameter vector", params)
	return c.Finish()
}

// SaveParams writes the model's parameter vector as a checkpoint (full
// float64 precision) under the versioned FTCK envelope.
func (m *Model) SaveParams(w io.Writer) error {
	return checkpoint(tensor.NewEncoder(w), m.params)
}

// LoadParams restores a checkpoint written by SaveParams. Wrong-magic,
// wrong-version, and truncated files fail with errors naming the defect;
// the stored vector must match the model's parameter count exactly —
// loading an MLP checkpoint into a CNN is an error, not a silent
// truncation — and the count is compared before anything is read, so a
// checkpoint never allocates more than the model it loads into. The
// model is never mutated on a failed load.
func (m *Model) LoadParams(r io.Reader) error {
	scratch := make([]float64, len(m.params))
	if err := checkpoint(tensor.NewDecoder(r, "nn", "model checkpoint"), scratch); err != nil {
		return err
	}
	copy(m.params, scratch)
	return nil
}
