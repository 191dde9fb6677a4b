package randpriv_test

// The benchmark harness regenerates every figure of the paper's
// evaluation section and prints the series it reports, plus the ablation
// benches called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute RMSE values depend on the synthetic substrate; EXPERIMENTS.md
// records the paper-vs-measured comparison of the shapes.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"randpriv/internal/experiment"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/synth"
)

// benchCfg is the paper-scale configuration: n=1000 records, σ=5 noise,
// per-attribute variance ≈300 (keeps UDR at the paper's ~4.8 level).
func benchCfg() experiment.Config {
	return experiment.Config{N: 1000, Sigma2: 25, Seed: 2005}
}

// BenchmarkFigure1 regenerates Figure 1: RMSE vs number of attributes
// with p=5 principal components fixed.
func BenchmarkFigure1(b *testing.B) {
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Experiment1(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", fig)
}

// BenchmarkFigure2 regenerates Figure 2: RMSE vs number of principal
// components with m=100 attributes fixed.
func BenchmarkFigure2(b *testing.B) {
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Experiment2(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", fig)
}

// BenchmarkFigure3 regenerates Figure 3: RMSE vs the eigenvalue of the
// non-principal components (m=100, first 20 eigenvalues at 400).
func BenchmarkFigure3(b *testing.B) {
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Experiment3(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", fig)
}

// BenchmarkFigure4 regenerates Figure 4: RMSE vs correlation
// dissimilarity under the improved randomization scheme (m=100, 50
// principal components; the * row is independent noise).
func BenchmarkFigure4(b *testing.B) {
	var fig *experiment.Figure4
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Experiment4(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", fig)
}

// BenchmarkUtility runs the §8.1 mining-utility comparison (extension
// experiment U1 in DESIGN.md).
func BenchmarkUtility(b *testing.B) {
	var res *experiment.UtilityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.UtilityExperiment(benchCfg(), 20, rand.New(rand.NewSource(2005)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n\n", res)
}

// BenchmarkAblationSelection compares PCA-DR component-selection policies
// (ablation A1 in DESIGN.md): the paper's largest-gap rule, a fixed
// oracle count, and a 95% energy threshold.
func BenchmarkAblationSelection(b *testing.B) {
	rng := rand.New(rand.NewSource(2005))
	spec := synth.Spectrum{M: 50, P: 5, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := synth.Generate(1000, vals, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	const sigma2 = 25.0
	pert, err := randomize.NewAdditiveGaussian(math.Sqrt(sigma2)).Perturb(ds.X, rng)
	if err != nil {
		b.Fatal(err)
	}
	policies := []*recon.PCADR{
		{Sigma2: sigma2, Select: recon.SelectGap},
		{Sigma2: sigma2, Select: recon.SelectFixed, P: 5},
		{Sigma2: sigma2, Select: recon.SelectEnergy, EnergyFrac: 0.95},
	}
	results := make([]string, len(policies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range policies {
			xhat, info, err := p.ReconstructWithInfo(pert.Y)
			if err != nil {
				b.Fatal(err)
			}
			results[k] = fmt.Sprintf("  %-8s p=%-3d RMSE %.4f",
				p.Select, info.Components, stat.RMSE(xhat, ds.X))
		}
	}
	b.StopTimer()
	fmt.Println("\nablation A1 — PCA-DR component selection (m=50, true p=5, σ²=25):")
	for _, r := range results {
		fmt.Println(r)
	}
	fmt.Println()
}

// BenchmarkAblationNoiseFilter verifies Theorem 5.2 numerically (ablation
// A2): the noise energy surviving a rank-p projection is σ²·p/m.
func BenchmarkAblationNoiseFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(2005))
	const (
		n      = 4000
		m      = 20
		sigma2 = 25.0
	)
	noise := mat.Zeros(n, m)
	for i := 0; i < n; i++ {
		row := noise.RawRow(i)
		for j := range row {
			row[j] = math.Sqrt(sigma2) * rng.NormFloat64()
		}
	}
	q := mat.RandomOrthogonal(m, rng)
	zero := mat.Zeros(n, m)
	type rowOut struct {
		p                   int
		measured, predicted float64
	}
	var rows []rowOut
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, p := range []int{1, 5, 10, 15, 20} {
			qhat := q.Slice(0, m, 0, p)
			proj := mat.Mul(mat.Mul(noise, qhat), mat.Transpose(qhat))
			rows = append(rows, rowOut{p, stat.MSE(proj, zero), sigma2 * float64(p) / float64(m)})
		}
	}
	b.StopTimer()
	fmt.Println("\nablation A2 — Theorem 5.2 (δ² = σ²·p/m at σ²=25, m=20):")
	for _, r := range rows {
		fmt.Printf("  p=%-3d measured %.4f  predicted %.4f\n", r.p, r.measured, r.predicted)
	}
	fmt.Println()
}

// BenchmarkAblationOracle compares oracle-vs-estimated covariance for the
// spectral attacks (design choice 2 in DESIGN.md, §5.3 of the paper).
func BenchmarkAblationOracle(b *testing.B) {
	var res *experiment.OracleAblation
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.AblationOracle(benchCfg(), 50, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nablation — oracle vs estimated covariance (m=50, p=5):\n%s\n", res)
}

// BenchmarkPartialDisclosure runs the §3 partial-value-disclosure sweep
// (extension experiment): undisclosed-attribute RMSE as side-channel
// knowledge grows, in the high-noise regime where the channel matters.
func BenchmarkPartialDisclosure(b *testing.B) {
	var fig *experiment.PartialFigure
	var err error
	cfg := benchCfg()
	cfg.Sigma2 = 400
	for i := 0; i < b.N; i++ {
		fig, err = experiment.PartialDisclosureSweep(cfg, 10, []int{0, 1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", fig)
}

// BenchmarkAttackBEDR measures the cost of one BE-DR reconstruction at
// paper scale (n=1000, m=100), with a persistent workspace as the server
// and experiment loops run it — the steady-state allocs/op column is the
// number PERFORMANCE.md tracks.
func BenchmarkAttackBEDR(b *testing.B) {
	_, pert := benchData(b, 100, 10)
	attack := &recon.BEDR{Sigma2: 25, WS: mat.NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Reconstruct(pert.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackPCADR measures one PCA-DR reconstruction at paper scale.
func BenchmarkAttackPCADR(b *testing.B) {
	_, pert := benchData(b, 100, 10)
	attack := &recon.PCADR{Sigma2: 25, WS: mat.NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Reconstruct(pert.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackSF measures one spectral-filtering reconstruction.
func BenchmarkAttackSF(b *testing.B) {
	_, pert := benchData(b, 100, 10)
	attack := &recon.SF{Sigma2: 25, WS: mat.NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Reconstruct(pert.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackUDR measures one UDR reconstruction at reduced width
// (UDR is per-attribute, so total cost scales linearly in m).
func BenchmarkAttackUDR(b *testing.B) {
	_, pert := benchData(b, 10, 3)
	attack := recon.NewUDR(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Reconstruct(pert.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackTemporalBEDR measures the combined-channel Kalman/RTS
// attack (n=1000 time steps, m=10 attributes).
func BenchmarkAttackTemporalBEDR(b *testing.B) {
	_, pert := benchData(b, 10, 3)
	attack := recon.NewTemporalBEDR(25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Reconstruct(pert.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul measures the blocked dense product at the scale of
// one covariance-recovery step: (1000×100)ᵀ·(1000×100).
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2005))
	a := mat.Zeros(1000, 100)
	rows := a.Raw()
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	at := mat.Transpose(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mat.Mul(at, a)
	}
}

// benchRand returns a seeded n×m standard-normal matrix.
func benchRand(n, m int) *mat.Dense {
	rng := rand.New(rand.NewSource(2005))
	a := mat.Zeros(n, m)
	raw := a.Raw()
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	return a
}

// BenchmarkMulABT measures the transpose-free a·bᵀ kernel at the attack
// projection shapes: (1000×m)·(m×m)ᵀ for m ∈ {50, 100, 200}.
func BenchmarkMulABT(b *testing.B) {
	for _, m := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a := benchRand(1000, m)
			q := benchRand(m, m)
			dst := mat.Zeros(1000, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.MulABTInto(dst, a, q)
			}
		})
	}
}

// BenchmarkSymRankK measures the triangular Gram kernel aᵀ·a at the
// covariance shapes: 1000×m for m ∈ {50, 100, 200}.
func BenchmarkSymRankK(b *testing.B) {
	for _, m := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a := benchRand(1000, m)
			dst := mat.Zeros(m, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.SymRankKInto(dst, a, 1.0/999)
			}
		})
	}
}

// BenchmarkCovarianceMatrix measures the sample covariance at paper
// scale (n=1000, m=100) — the Σy estimate every spectral attack starts
// from, now a centered pass plus one SymRankKInto.
func BenchmarkCovarianceMatrix(b *testing.B) {
	a := benchRand(1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stat.CovarianceMatrix(a)
	}
}

// BenchmarkEigenSym measures the Householder+QL eigendecomposition at
// m=100 — the kernel every spectral attack relies on.
func BenchmarkEigenSym(b *testing.B) {
	rng := rand.New(rand.NewSource(2005))
	spec := synth.Spectrum{M: 100, P: 10, Principal: 400, Tail: 4}
	vals, _ := spec.Values()
	cov, err := synth.CovarianceFromSpectrum(vals, mat.RandomOrthogonal(100, rng))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.EigenSym(cov); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticSource is a stream.Source that generates a disguised
// correlated data set on the fly, chunk by chunk: z·mixᵀ gives rows with
// a spiked covariance, plus i.i.d. N(0, σ²) noise. Nothing larger than
// one chunk is ever materialized and the buffers are reused, so it is the
// substrate for demonstrating that the streaming attacks' memory use is
// independent of n. Reset reseeds the generator, so every pass replays
// the identical data set.
type syntheticSource struct {
	n, m, chunkRows int
	seed            int64
	sigma           float64
	mixT            *mat.Dense // m×m, z·mixT has covariance mix·mixᵀ
	rng             *rand.Rand
	pos             int
	z, buf          *mat.Dense
	// zTail, bufTail are row-prefix views of z and buf for the short
	// final chunk, created once per distinct tail size: allocating fresh
	// matrices there would pollute the B/op column this source exists to
	// keep honest.
	zTail, bufTail *mat.Dense
}

func newSyntheticSource(n, m, p, chunkRows int, sigma float64, seed int64) *syntheticSource {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	spec := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		panic(err)
	}
	scaled := mat.RandomOrthogonal(m, rng)
	for j := 0; j < m; j++ {
		col := scaled.Col(j)
		s := math.Sqrt(vals[j])
		for i := range col {
			col[i] *= s
		}
		scaled.SetCol(j, col)
	}
	s := &syntheticSource{
		n: n, m: m, chunkRows: chunkRows, seed: seed, sigma: sigma,
		mixT: mat.Transpose(scaled),
		z:    mat.Zeros(chunkRows, m),
		buf:  mat.Zeros(chunkRows, m),
	}
	if err := s.Reset(); err != nil {
		panic(err)
	}
	return s
}

func (s *syntheticSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.pos = 0
	return nil
}

func (s *syntheticSource) Next() (*mat.Dense, error) {
	if s.pos >= s.n {
		return nil, io.EOF
	}
	rows := s.chunkRows
	if s.pos+rows > s.n {
		rows = s.n - s.pos
	}
	z, buf := s.z, s.buf
	if rows != s.chunkRows {
		if s.zTail == nil || s.zTail.Rows() != rows {
			s.zTail = mat.New(rows, s.m, s.z.Raw()[:rows*s.m])
			s.bufTail = mat.New(rows, s.m, s.buf.Raw()[:rows*s.m])
		}
		z, buf = s.zTail, s.bufTail
	}
	raw := z.Raw()
	for i := range raw {
		raw[i] = s.rng.NormFloat64()
	}
	mat.MulInto(buf, z, s.mixT)
	out := buf.Raw()
	for i := range out {
		out[i] += s.sigma * s.rng.NormFloat64()
	}
	s.pos += rows
	return buf, nil
}

// discardSink drops every chunk — the attacks' output cost is excluded so
// the benchmark isolates the pipeline itself.
type discardSink struct{}

func (discardSink) Append(*mat.Dense) error { return nil }

// BenchmarkStreamingAttack measures the out-of-core two-pass attacks over
// generated streams of increasing length. The point of the B/op column:
// allocated bytes are (near-)independent of n — the pipeline holds one
// chunk plus O(m²) state, so only ns/op grows with the row count. Compare
// with the in-memory attacks, whose footprint is O(n·m).
func BenchmarkStreamingAttack(b *testing.B) {
	const (
		m      = 50
		p      = 5
		chunk  = 256
		sigma2 = 25.0
	)
	attacks := []struct {
		name string
		r    recon.StreamReconstructor
	}{
		{"PCA-DR", recon.NewPCADR(sigma2)},
		{"BE-DR", recon.NewBEDR(sigma2)},
	}
	for _, a := range attacks {
		for _, n := range []int{2048, 16384} {
			b.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(b *testing.B) {
				src := newSyntheticSource(n, m, p, chunk, math.Sqrt(sigma2), 2005)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := a.r.ReconstructStream(src, discardSink{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchData generates a standard disguised data set for attack benches.
func benchData(b *testing.B, m, p int) (*synth.Dataset, *randomize.Perturbed) {
	b.Helper()
	rng := rand.New(rand.NewSource(2005))
	spec := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := synth.Generate(1000, vals, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	pert, err := randomize.NewAdditiveGaussian(5).Perturb(ds.X, rng)
	if err != nil {
		b.Fatal(err)
	}
	return ds, pert
}
