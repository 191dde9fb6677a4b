package recon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/synth"
)

// makeSmallDisguised builds a random small disguised data set for
// property tests.
func makeSmallDisguised(seed int64) (*mat.Dense, float64, bool) {
	rng := rand.New(rand.NewSource(seed))
	m := 4 + rng.Intn(5)
	p := 1 + rng.Intn(2)
	spec := synth.Spectrum{M: m, P: p, Principal: 300 + 100*rng.Float64(), Tail: 2 + 2*rng.Float64()}
	vals, err := spec.Values()
	if err != nil {
		return nil, 0, false
	}
	ds, err := synth.Generate(200+rng.Intn(200), vals, nil, rng)
	if err != nil {
		return nil, 0, false
	}
	sigma := 2 + 3*rng.Float64()
	pert, err := randomize.NewAdditiveGaussian(sigma).Perturb(ds.X, rng)
	if err != nil {
		return nil, 0, false
	}
	return pert.Y, sigma * sigma, true
}

// shiftColumns adds c to every entry of a copy.
func shiftColumns(y *mat.Dense, c float64) *mat.Dense {
	out := y.Clone()
	for _, row := range rowsOf(out) {
		for j := range row {
			row[j] += c
		}
	}
	return out
}

func rowsOf(m *mat.Dense) [][]float64 {
	n, _ := m.Dims()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m.RawRow(i)
	}
	return out
}

// Property: BE-DR is shift-equivariant — translating the disguised data
// translates the reconstruction (means are estimated from the data, so a
// constant shift passes straight through).
func TestBEDRShiftEquivariantProperty(t *testing.T) {
	f := func(seed int64, rawShift float64) bool {
		y, sigma2, ok := makeSmallDisguised(seed)
		if !ok {
			return false
		}
		c := math.Mod(rawShift, 100)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			c = 7
		}
		attack := NewBEDR(sigma2)
		a, err := attack.Reconstruct(y)
		if err != nil {
			return false
		}
		b, err := attack.Reconstruct(shiftColumns(y, c))
		if err != nil {
			return false
		}
		return b.EqualApprox(shiftColumns(a, c), 1e-6*math.Max(1, math.Abs(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: PCA-DR is shift-equivariant for the same reason (explicit
// centering before projection).
func TestPCADRShiftEquivariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		y, sigma2, ok := makeSmallDisguised(seed)
		if !ok {
			return false
		}
		const c = 42.5
		attack := NewPCADR(sigma2)
		a, err := attack.Reconstruct(y)
		if err != nil {
			return false
		}
		b, err := attack.Reconstruct(shiftColumns(y, c))
		if err != nil {
			return false
		}
		return b.EqualApprox(shiftColumns(a, c), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: PCA-DR is scale-equivariant — scaling the data and the noise
// variance together scales the reconstruction.
func TestPCADRScaleEquivariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		y, sigma2, ok := makeSmallDisguised(seed)
		if !ok {
			return false
		}
		const s = 3.0
		a, err := NewPCADR(sigma2).Reconstruct(y)
		if err != nil {
			return false
		}
		b, err := NewPCADR(sigma2 * s * s).Reconstruct(mat.Scale(s, y))
		if err != nil {
			return false
		}
		return b.EqualApprox(mat.Scale(s, a), 1e-6*mat.MaxAbs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every attack output is finite on finite input.
func TestAttackOutputsFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		y, sigma2, ok := makeSmallDisguised(seed)
		if !ok {
			return false
		}
		attacks := []Reconstructor{
			NDR{},
			NewSF(sigma2),
			NewPCADR(sigma2),
			NewBEDR(sigma2),
			&BEDR{Sigma2: sigma2, Shrink: true},
		}
		for _, a := range attacks {
			xhat, err := a.Reconstruct(y)
			if err != nil {
				return false
			}
			for _, v := range xhat.Raw() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Non-finite inputs must be rejected up front by every attack. The
// registry's attacks are checked by core's TestAttackConformance; this
// list holds the ones the registry does not build.
func TestAttacksRejectNonFiniteInput(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		y := mat.NewFromRows([][]float64{{1, 2}, {3, bad}})
		attacks := []Reconstructor{
			&PartialDisclosure{Sigma2: 1},
			&BEDRNumeric{},
		}
		for _, a := range attacks {
			if _, err := a.Reconstruct(y); err == nil {
				t.Errorf("%s accepted %v input", a.Name(), bad)
			}
		}
	}
}
