package dp

import (
	"math"
	"math/rand"
	"testing"

	"randpriv/internal/dist"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/synth"
)

// lapDist exposes the mechanism's noise as a dist.Continuous.
func lapDist(m LaplaceMechanism) dist.Continuous {
	return dist.NewLaplace(0, m.Scale())
}

func TestNewLaplaceMechanismValidation(t *testing.T) {
	bad := [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}, {math.NaN(), 1}, {1, math.Inf(1)}}
	for _, c := range bad {
		if _, err := NewLaplaceMechanism(c[0], c[1]); err == nil {
			t.Errorf("NewLaplaceMechanism(%v, %v) must error", c[0], c[1])
		}
	}
}

func TestLaplaceMechanismScale(t *testing.T) {
	m, err := NewLaplaceMechanism(0.5, 2)
	if err != nil {
		t.Fatalf("NewLaplaceMechanism: %v", err)
	}
	if m.Scale() != 4 {
		t.Errorf("Scale = %v, want 4", m.Scale())
	}
	if m.NoiseVariance() != 32 {
		t.Errorf("NoiseVariance = %v, want 32", m.NoiseVariance())
	}
}

// The release is the dp-laplace defense's: value + Lap(b) per entry,
// through randomize.Additive with the mechanism's scale.
func TestLaplaceReleaseDistribution(t *testing.T) {
	m, _ := NewLaplaceMechanism(1, 1) // b = 1, var = 2
	rng := rand.New(rand.NewSource(1))
	n := 100000
	x := mat.Zeros(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 10)
	}
	pert, err := randomize.Additive{Noise: lapDist(m)}.Perturb(x, rng)
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := pert.Y.At(i, 0)
		sum += v
		ss += (v - 10) * (v - 10)
	}
	mean := sum / float64(n)
	varc := ss / float64(n)
	if math.Abs(mean-10) > 0.03 {
		t.Errorf("release mean = %v, want ≈10", mean)
	}
	if math.Abs(varc-2) > 0.1 {
		t.Errorf("release variance = %v, want ≈2", varc)
	}
}

func TestGaussianMechanismValidation(t *testing.T) {
	bad := [][3]float64{{0, 0.1, 1}, {1.5, 0.1, 1}, {0.5, 0, 1}, {0.5, 1, 1}, {0.5, 0.1, 0}}
	for _, c := range bad {
		if _, err := NewGaussianMechanism(c[0], c[1], c[2]); err == nil {
			t.Errorf("NewGaussianMechanism(%v) must error", c)
		}
	}
}

func TestGaussianMechanismSigma(t *testing.T) {
	m, err := NewGaussianMechanism(0.5, 1e-5, 1)
	if err != nil {
		t.Fatalf("NewGaussianMechanism: %v", err)
	}
	want := math.Sqrt(2*math.Log(1.25e5)) / 0.5
	if math.Abs(m.Sigma()-want) > 1e-12 {
		t.Errorf("Sigma = %v, want %v", m.Sigma(), want)
	}
	// Smaller epsilon ⇒ more noise.
	m2, _ := NewGaussianMechanism(0.25, 1e-5, 1)
	if m2.Sigma() <= m.Sigma() {
		t.Error("halving epsilon must increase sigma")
	}
}

func TestBudgetComposition(t *testing.T) {
	var b Budget
	if err := b.Spend(0.5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.25, 0); err != nil {
		t.Fatal(err)
	}
	eps, delta := b.Spent()
	if math.Abs(eps-0.75) > 1e-12 || math.Abs(delta-1e-6) > 1e-18 {
		t.Errorf("Spent = (%v, %v)", eps, delta)
	}
	if err := b.Spend(-1, 0); err == nil {
		t.Error("negative spend must error")
	}
}

func TestRecordEpsilon(t *testing.T) {
	if got := RecordEpsilon(0.1, 20); math.Abs(got-2) > 1e-12 {
		t.Errorf("RecordEpsilon = %v, want 2", got)
	}
}

// The bridge to the paper: Laplace noise calibrated per attribute is
// still filtered by the Bayes attack on correlated data — the RMSE
// "protection" shrinks well below the mechanism's noise level, exactly
// as with plain Gaussian randomization. Only the composed (m·ε) record
// budget describes what is actually guaranteed.
func TestBEDRFiltersPerAttributeLaplaceNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := synth.Spectrum{M: 20, P: 3, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	ds, err := synth.Generate(1500, vals, nil, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	mech, err := NewLaplaceMechanism(1, 4) // b = 4, noise var = 32
	if err != nil {
		t.Fatalf("NewLaplaceMechanism: %v", err)
	}
	pert, err := randomize.Additive{Noise: lapDist(mech)}.Perturb(ds.X, rng)
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	y := pert.Y

	attack := recon.NewBEDR(mech.NoiseVariance())
	xhat, err := attack.Reconstruct(y)
	if err != nil {
		t.Fatalf("BE-DR: %v", err)
	}
	ndr := stat.RMSE(y, ds.X)
	got := stat.RMSE(xhat, ds.X)
	if got >= 0.7*ndr {
		t.Errorf("BE-DR RMSE %v did not substantially beat the DP noise floor %v", got, ndr)
	}
}

// Sanity: the mechanisms and the paper's randomization schemes agree on
// noise accounting — an Additive scheme built from the mechanism's noise
// has matching variance.
func TestMechanismMatchesRandomizeScheme(t *testing.T) {
	mech, _ := NewLaplaceMechanism(2, 4) // b=2, var=8
	scheme := randomize.Additive{Noise: lapDist(mech)}
	if math.Abs(scheme.NoiseVariance()-mech.NoiseVariance()) > 1e-12 {
		t.Errorf("scheme variance %v != mechanism variance %v",
			scheme.NoiseVariance(), mech.NoiseVariance())
	}
}
