package nn

import "fmt"

// Arch names one of the paper's model architectures.
type Arch string

const (
	// ArchMLP is the paper's MultiLayer Perceptron: two fully connected
	// layers of 100 and numClasses neurons, ReLU after the first
	// (Table III: ~0.08M params, ~0.3 MB at float32 for 28x28 inputs).
	ArchMLP Arch = "mlp"
	// ArchCNN is the paper's LeNet5-derived CNN: three 5x5 convolutions
	// followed by fully connected layers of 84 and numClasses neurons
	// (Table III: ~0.06M params / 0.24 MB, ~0.42 MFLOPs on 28x28).
	ArchCNN Arch = "cnn"
	// ArchAlexNet is the paper's scaled-down AlexNet for CIFAR-10-like
	// 3-channel inputs (Table III: ~2.7M params, ~10.4 MB, ~146 MFLOPs).
	ArchAlexNet Arch = "alexnet"
)

// ModelSpec describes a model to instantiate: architecture, per-sample
// input shape (C, H, W for images), class count, and a width scale in
// (0, 1] that shrinks channel/neuron counts for fast test profiles
// (scale 1 reproduces the paper's sizes).
type ModelSpec struct {
	Arch                    Arch
	Channels, Height, Width int
	Classes                 int
	Scale                   float64
}

// Validate checks the spec and fills defaults (Scale 0 -> 1).
func (s *ModelSpec) Validate() error {
	if s.Scale == 0 {
		s.Scale = 1
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("nn: model scale %v outside (0,1]", s.Scale)
	}
	if s.Channels <= 0 || s.Height <= 0 || s.Width <= 0 || s.Classes <= 1 {
		return fmt.Errorf("nn: invalid model spec %+v", *s)
	}
	return nil
}

func (s ModelSpec) scaled(n int) int {
	v := int(float64(float64(n)*s.Scale) + 0.5)
	if v < 1 {
		return 1
	}
	return v
}

// Build instantiates the model with weights drawn deterministically from
// seed.
func (s ModelSpec) Build(seed int64) (*Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var b *Builder
	switch s.Arch {
	case ArchMLP:
		b = NewBuilder(s.Channels * s.Height * s.Width)
		b.Dense(s.scaled(100)).ReLU().Dense(s.Classes)
	case ArchCNN:
		// LeNet5-style: conv5x5(6) pad2 -> pool2 -> conv5x5(16) -> pool2
		// -> conv5x5(120) -> FC 84 -> FC classes. With 28x28 input the
		// third conv reduces exactly to 1x1, as in LeNet5.
		b = NewBuilder(s.Channels, s.Height, s.Width)
		b.Conv2D(s.scaled(6), 5, 1, 2).ReLU().MaxPool2D(2)
		b.Conv2D(s.scaled(16), 5, 1, 0).ReLU().MaxPool2D(2)
		b.Conv2D(s.scaled(120), 5, 1, 0).ReLU()
		b.Flatten()
		b.Dense(s.scaled(84)).ReLU().Dense(s.Classes)
	case ArchAlexNet:
		// AlexNet-style for 32x32 RGB: five convolutions with two
		// interleaved poolings, then a compact classifier with dropout.
		b = NewBuilder(s.Channels, s.Height, s.Width)
		b.Conv2D(s.scaled(64), 5, 1, 2).ReLU().MaxPool2D(2)
		b.Conv2D(s.scaled(192), 5, 1, 2).ReLU().MaxPool2D(2)
		b.Conv2D(s.scaled(384), 3, 1, 1).ReLU()
		b.Conv2D(s.scaled(256), 3, 1, 1).ReLU()
		b.Conv2D(s.scaled(256), 3, 1, 1).ReLU().MaxPool2D(2)
		b.Flatten()
		// Dropout strength follows the width scale: a 128-unit classifier
		// tolerates p=0.5, but the scaled-down fast-profile heads would be
		// starved by it.
		b.Dropout(0.5 * s.Scale)
		b.Dense(s.scaled(128)).ReLU()
		b.Dense(s.Classes)
	default:
		return nil, fmt.Errorf("nn: unknown architecture %q", s.Arch)
	}
	return b.Build(seed)
}
