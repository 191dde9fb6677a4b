package recon

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"randpriv/internal/asr"
	"randpriv/internal/dist"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/stat"
	"randpriv/internal/synth"
)

// testCase bundles a generated original/disguised pair for attack tests.
type testCase struct {
	data  *synth.Dataset
	y     *mat.Dense
	sigma float64
}

// makeCorrelated builds a highly correlated data set (few dominant
// eigenvalues) disguised with i.i.d. Gaussian noise.
func makeCorrelated(t *testing.T, n, m, p int, seed int64) testCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	ds, err := synth.Generate(n, vals, nil, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	sigma := 4.0
	pert, err := randomize.NewAdditiveGaussian(sigma).Perturb(ds.X, rng)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	return testCase{data: ds, y: pert.Y, sigma: sigma}
}

func TestNDRReturnsCloneOfY(t *testing.T) {
	y := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
	xhat, err := NDR{}.Reconstruct(y)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if !xhat.Equal(y) {
		t.Error("NDR must return y itself")
	}
	xhat.Set(0, 0, 99)
	if y.At(0, 0) != 1 {
		t.Error("NDR must not alias its input")
	}
	if (NDR{}).Name() != "NDR" {
		t.Error("wrong name")
	}
}

func TestNDREmptyInput(t *testing.T) {
	if _, err := (NDR{}).Reconstruct(mat.Zeros(0, 0)); err == nil {
		t.Fatal("empty input must error")
	}
}

// §4.1: NDR's MSE equals the noise variance.
func TestNDRMSEEqualsSigma2(t *testing.T) {
	tc := makeCorrelated(t, 4000, 5, 2, 1)
	xhat, err := NDR{}.Reconstruct(tc.y)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	got := stat.MSE(xhat, tc.data.X)
	want := tc.sigma * tc.sigma
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("NDR MSE = %v, want ≈%v", got, want)
	}
}

func TestUDRBeatsNDR(t *testing.T) {
	tc := makeCorrelated(t, 1500, 4, 2, 2)
	udr := NewUDR(tc.sigma)
	xhat, err := udr.Reconstruct(tc.y)
	if err != nil {
		t.Fatalf("UDR: %v", err)
	}
	udrErr := stat.RMSE(xhat, tc.data.X)
	ndrErr := stat.RMSE(tc.y, tc.data.X)
	if udrErr >= ndrErr {
		t.Errorf("UDR RMSE %v not better than NDR %v", udrErr, ndrErr)
	}
	if udr.Name() != "UDR" {
		t.Error("wrong name")
	}
}

func TestUDRNilNoiseErrors(t *testing.T) {
	u := &UDR{}
	if _, err := u.Reconstruct(mat.Zeros(2, 2)); err == nil {
		t.Fatal("UDR without noise distribution must error")
	}
}

func TestUDREmptyInput(t *testing.T) {
	if _, err := NewUDR(1).Reconstruct(mat.Zeros(0, 3)); err == nil {
		t.Fatal("empty input must error")
	}
}

// For Gaussian marginals UDR must approximate the scalar Wiener estimate:
// x̂ = μ + s²/(s²+σ²)·(y−μ) per attribute.
func TestUDRMatchesWienerShrinkage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	s, sigma := 3.0, 2.0
	x := mat.Zeros(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 5+s*rng.NormFloat64())
	}
	pert, err := randomize.NewAdditiveGaussian(sigma).Perturb(x, rng)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	xhat, err := NewUDR(sigma).Reconstruct(pert.Y)
	if err != nil {
		t.Fatalf("UDR: %v", err)
	}
	// Grid error grows in the far tails where the density estimate has
	// few samples, so compare in RMS rather than worst-case.
	shrink := s * s / (s*s + sigma*sigma)
	var ss float64
	for i := 0; i < n; i++ {
		want := 5 + shrink*(pert.Y.At(i, 0)-5)
		d := xhat.At(i, 0) - want
		ss += d * d
	}
	if rms := math.Sqrt(ss / float64(n)); rms > 0.2 {
		t.Errorf("RMS deviation from Wiener shrinkage = %v, want < 0.2", rms)
	}
}

// UDR is noise-distribution-agnostic: with Laplace noise it must still
// beat the NDR floor (the asr machinery only needs the noise PDF).
func TestUDRWithLaplaceNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	spec := synth.Spectrum{M: 3, P: 1, Principal: 300, Tail: 100}
	vals, err := spec.Values()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	ds, err := synth.Generate(1500, vals, nil, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	lap := dist.NewLaplace(0, 8)
	pert, err := randomize.Additive{Noise: lap}.Perturb(ds.X, rng)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	udr := &UDR{Noise: lap}
	xhat, err := udr.Reconstruct(pert.Y)
	if err != nil {
		t.Fatalf("UDR: %v", err)
	}
	if got, floor := stat.RMSE(xhat, ds.X), stat.RMSE(pert.Y, ds.X); got >= floor {
		t.Errorf("UDR with Laplace noise %v did not beat NDR %v", got, floor)
	}
}

// TestUDRBitIdenticalAcrossGOMAXPROCS: UDR runs its attributes
// concurrently, so its output must not depend on the parallelism. At
// GOMAXPROCS 1, 2, 3 and 16 (more than m) every entry matches, bit for
// bit, the serial per-attribute composition of asr.Reconstruct and
// Density.PosteriorMean.
func TestUDRBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	tc := makeCorrelated(t, 203, 7, 2, 5)
	udr := NewUDR(tc.sigma)
	n, m := tc.y.Dims()
	want := mat.Zeros(n, m)
	for j := 0; j < m; j++ {
		col := tc.y.Col(j)
		d, err := asr.Reconstruct(col, udr.Noise, udr.Opts)
		if err != nil {
			t.Fatalf("asr.Reconstruct column %d: %v", j, err)
		}
		for i, yi := range col {
			want.Set(i, j, d.PosteriorMean(yi, udr.Noise))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 16} {
		runtime.GOMAXPROCS(procs)
		got, err := udr.Reconstruct(tc.y)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: UDR: %v", procs, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("GOMAXPROCS %d: x̂[%d,%d] = %v, serial %v", procs, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestPCADRNoReductionReturnsY(t *testing.T) {
	tc := makeCorrelated(t, 300, 4, 2, 4)
	attack := &PCADR{Sigma2: tc.sigma * tc.sigma, Select: SelectFixed, P: 4}
	xhat, err := attack.Reconstruct(tc.y)
	if err != nil {
		t.Fatalf("PCA-DR: %v", err)
	}
	// With p = m the projection Q̂Q̂ᵀ is the identity: X̂ = Y.
	if !xhat.EqualApprox(tc.y, 1e-8) {
		t.Error("PCA-DR with p=m must return Y")
	}
}

// Theorem 5.2: projecting pure i.i.d. noise onto p of m orthonormal
// directions leaves exactly σ²·p/m of its energy.
func TestPCADRTheorem52(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 20000, 10
	sigma := 2.0
	r := mat.Zeros(n, m)
	for i := 0; i < n; i++ {
		row := r.RawRow(i)
		for j := range row {
			row[j] = sigma * rng.NormFloat64()
		}
	}
	q := mat.RandomOrthogonal(m, rng)
	for _, p := range []int{1, 3, 5, 8, 10} {
		qhat := q.Slice(0, m, 0, p)
		proj := mat.Mul(mat.Mul(r, qhat), mat.Transpose(qhat))
		got := stat.MSE(proj, mat.Zeros(n, m)) // mean square of RQ̂Q̂ᵀ
		want := sigma * sigma * float64(p) / float64(m)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("p=%d: noise energy %v, want σ²p/m = %v", p, got, want)
		}
	}
}

func TestPCADRBeatsNDROnCorrelatedData(t *testing.T) {
	tc := makeCorrelated(t, 1000, 20, 3, 6)
	attack := NewPCADR(tc.sigma * tc.sigma)
	xhat, info, err := attack.ReconstructWithInfo(tc.y)
	if err != nil {
		t.Fatalf("PCA-DR: %v", err)
	}
	pcaErr := stat.RMSE(xhat, tc.data.X)
	ndrErr := stat.RMSE(tc.y, tc.data.X)
	if pcaErr >= ndrErr {
		t.Errorf("PCA-DR RMSE %v not better than NDR %v", pcaErr, ndrErr)
	}
	// Gap selection should find the true component count.
	if info.Components != 3 {
		t.Errorf("gap selection chose %d components, want 3", info.Components)
	}
	if info.KeptEnergy < 0.9 {
		t.Errorf("kept energy %v suspiciously low", info.KeptEnergy)
	}
}

func TestPCADRSelectionValidation(t *testing.T) {
	tc := makeCorrelated(t, 100, 4, 2, 7)
	cases := []*PCADR{
		{Sigma2: 1, Select: SelectFixed, P: 0},
		{Sigma2: 1, Select: SelectFixed, P: 9},
		{Sigma2: 1, Select: SelectEnergy, EnergyFrac: 0},
		{Sigma2: 1, Select: SelectEnergy, EnergyFrac: 1.5},
		{Sigma2: 1, Select: Selection(42)},
		{Sigma2: -1, Select: SelectGap},
		{Sigma2: math.NaN(), Select: SelectGap},
	}
	for i, c := range cases {
		if _, err := c.Reconstruct(tc.y); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestPCADROracleCovariance(t *testing.T) {
	tc := makeCorrelated(t, 800, 10, 2, 8)
	oracle := &PCADR{Sigma2: tc.sigma * tc.sigma, Select: SelectGap, OracleCov: tc.data.Cov}
	est := NewPCADR(tc.sigma * tc.sigma)
	xo, err := oracle.Reconstruct(tc.y)
	if err != nil {
		t.Fatalf("oracle PCA-DR: %v", err)
	}
	xe, err := est.Reconstruct(tc.y)
	if err != nil {
		t.Fatalf("estimated PCA-DR: %v", err)
	}
	// §5.3: "only minor differences" between oracle and estimated
	// covariance reconstructions.
	ro, re := stat.RMSE(xo, tc.data.X), stat.RMSE(xe, tc.data.X)
	if math.Abs(ro-re)/ro > 0.15 {
		t.Errorf("oracle RMSE %v vs estimated %v differ too much", ro, re)
	}
}

func TestPCADROracleShapeMismatch(t *testing.T) {
	tc := makeCorrelated(t, 100, 4, 2, 9)
	bad := &PCADR{Sigma2: 1, OracleCov: mat.Identity(3)}
	if _, err := bad.Reconstruct(tc.y); err == nil {
		t.Fatal("oracle covariance shape mismatch must error")
	}
}

// Degenerate spectrum (no dominant gap): gap selection must keep every
// component rather than split on sampling noise, so PCA-DR degrades
// gracefully to the NDR level — the m=p corners of Figures 1 and 2.
func TestPCADRGapFallbackOnFlatSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = 300 // perfectly flat spectrum: zero correlation structure
	}
	ds, err := synth.Generate(1000, vals, nil, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	sigma := 5.0
	pert, err := randomize.NewAdditiveGaussian(sigma).Perturb(ds.X, rng)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	attack := NewPCADR(sigma * sigma)
	xhat, info, err := attack.ReconstructWithInfo(pert.Y)
	if err != nil {
		t.Fatalf("PCA-DR: %v", err)
	}
	if info.Components != 8 {
		t.Errorf("flat spectrum kept %d components, want all 8", info.Components)
	}
	// p=m means X̂=Y: PCA-DR error equals the NDR floor, never worse.
	ndr := stat.RMSE(pert.Y, ds.X)
	if got := stat.RMSE(xhat, ds.X); math.Abs(got-ndr) > 1e-9 {
		t.Errorf("PCA-DR on flat spectrum RMSE %v, want NDR %v", got, ndr)
	}
}

func TestDominantGap(t *testing.T) {
	cases := []struct {
		vals []float64
		want bool
	}{
		{[]float64{400, 400, 400, 4, 4, 4}, true},   // structured
		{[]float64{300, 298, 296, 294, 292}, false}, // flat with jitter
		{[]float64{10, 5}, true},                    // m<3 always dominant
		{[]float64{7, 7, 7}, true},                  // zero spread
	}
	for _, tc := range cases {
		if got := dominantGap(tc.vals); got != tc.want {
			t.Errorf("dominantGap(%v) = %t, want %t", tc.vals, got, tc.want)
		}
	}
}

func TestSelectionString(t *testing.T) {
	if SelectGap.String() != "gap" || SelectFixed.String() != "fixed" ||
		SelectEnergy.String() != "energy" {
		t.Error("Selection names wrong")
	}
	if Selection(9).String() == "" {
		t.Error("unknown selection must still render")
	}
}
