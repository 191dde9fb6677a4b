// Package dp provides the differential privacy mechanisms that the line
// of attacks in this repository historically motivated: Huang, Du &
// Chen's reconstruction results (together with Kargupta et al.'s) showed
// that "amount of noise" is not a privacy guarantee, pushing the field
// toward mechanisms with worst-case semantics.
//
// The package implements the Laplace and Gaussian mechanisms with
// sensitivity-based calibration and sequential composition accounting.
// The accompanying tests demonstrate the bridge to the paper: noise
// calibrated per attribute still yields to the BE-DR attack on
// correlated data — the protection that survives is exactly the ε
// accounted by composition over the *whole* record, never the
// per-attribute ε that the attack launders away.
package dp

import (
	"fmt"
	"math"
)

// LaplaceMechanism releases value + Lap(sensitivity/epsilon), the
// canonical ε-differentially-private mechanism for a query with the
// given L1 sensitivity.
type LaplaceMechanism struct {
	// Epsilon is the privacy budget, > 0.
	Epsilon float64
	// Sensitivity is the query's L1 sensitivity, > 0.
	Sensitivity float64
}

// NewLaplaceMechanism validates the parameters.
func NewLaplaceMechanism(epsilon, sensitivity float64) (LaplaceMechanism, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return LaplaceMechanism{}, fmt.Errorf("dp: epsilon %v, must be finite and > 0", epsilon)
	}
	if sensitivity <= 0 || math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return LaplaceMechanism{}, fmt.Errorf("dp: sensitivity %v, must be finite and > 0", sensitivity)
	}
	return LaplaceMechanism{Epsilon: epsilon, Sensitivity: sensitivity}, nil
}

// Scale returns the Laplace scale b = sensitivity/epsilon.
func (m LaplaceMechanism) Scale() float64 { return m.Sensitivity / m.Epsilon }

// NoiseVariance returns the per-release noise variance 2b².
func (m LaplaceMechanism) NoiseVariance() float64 {
	b := m.Scale()
	return 2 * b * b
}

// GaussianMechanism releases value + N(0, σ²) with σ calibrated for
// (ε, δ)-differential privacy via the classic analysis
// σ ≥ sensitivity·√(2·ln(1.25/δ))/ε (valid for ε ≤ 1).
type GaussianMechanism struct {
	Epsilon     float64
	Delta       float64
	Sensitivity float64 // L2 sensitivity
}

// NewGaussianMechanism validates the parameters.
func NewGaussianMechanism(epsilon, delta, sensitivity float64) (GaussianMechanism, error) {
	if epsilon <= 0 || epsilon > 1 {
		return GaussianMechanism{}, fmt.Errorf("dp: epsilon %v, must be in (0,1] for the classic Gaussian analysis", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return GaussianMechanism{}, fmt.Errorf("dp: delta %v, must be in (0,1)", delta)
	}
	if sensitivity <= 0 {
		return GaussianMechanism{}, fmt.Errorf("dp: sensitivity %v, must be > 0", sensitivity)
	}
	return GaussianMechanism{Epsilon: epsilon, Delta: delta, Sensitivity: sensitivity}, nil
}

// Sigma returns the calibrated noise standard deviation.
func (m GaussianMechanism) Sigma() float64 {
	return m.Sensitivity * math.Sqrt(2*math.Log(1.25/m.Delta)) / m.Epsilon
}

// Budget tracks cumulative privacy loss under sequential composition.
type Budget struct {
	spentEps   float64
	spentDelta float64
}

// Spend records one (ε, δ) release.
func (b *Budget) Spend(epsilon, delta float64) error {
	if epsilon < 0 || delta < 0 {
		return fmt.Errorf("dp: negative privacy cost (ε=%v, δ=%v)", epsilon, delta)
	}
	b.spentEps += epsilon
	b.spentDelta += delta
	return nil
}

// Spent returns the total (ε, δ) under basic sequential composition.
func (b *Budget) Spent() (epsilon, delta float64) { return b.spentEps, b.spentDelta }

// RecordEpsilon prices the release of an m-attribute record when each
// attribute is perturbed with a per-attribute ε mechanism: by sequential
// composition the whole record costs m·ε. This is the accounting lesson
// the reconstruction attacks teach — correlated attributes cannot be
// priced independently.
func RecordEpsilon(perAttribute float64, m int) float64 {
	return perAttribute * float64(m)
}
