package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/synth"
)

// OracleAblation compares each covariance-based attack run with the exact
// generating covariance ("oracle") against the Theorem 5.1 estimate from
// the disguised data — quantifying the §5.3 claim that the two differ
// only minorly.
type OracleAblation struct {
	// Attack → [oracle RMSE, estimated RMSE].
	Oracle    map[string]float64
	Estimated map[string]float64
}

// AblationOracle runs the comparison at the given size.
func AblationOracle(cfg Config, m, p int) (*OracleAblation, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	spec, err := synth.BudgetedSpectrum(m, p, cfg.Tail, cfg.AvgVariance)
	if err != nil {
		return nil, err
	}
	vals, err := spec.Values()
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(cfg.N, vals, nil, rng)
	if err != nil {
		return nil, err
	}
	pert, err := randomize.NewAdditiveGaussian(math.Sqrt(cfg.Sigma2)).Perturb(ds.X, rng)
	if err != nil {
		return nil, err
	}

	out := &OracleAblation{Oracle: map[string]float64{}, Estimated: map[string]float64{}}
	run := func(name string, a recon.Reconstructor, dst map[string]float64) error {
		xhat, err := a.Reconstruct(pert.Y)
		if err != nil {
			return fmt.Errorf("experiment: %s: %w", name, err)
		}
		dst[name] = stat.RMSE(xhat, ds.X)
		return nil
	}
	zeroMean := make([]float64, m)
	pairs := []struct {
		name      string
		oracle    recon.Reconstructor
		estimated recon.Reconstructor
	}{
		{
			"PCA-DR",
			&recon.PCADR{Sigma2: cfg.Sigma2, Select: recon.SelectGap, OracleCov: ds.Cov},
			recon.NewPCADR(cfg.Sigma2),
		},
		{
			"BE-DR",
			&recon.BEDR{Sigma2: cfg.Sigma2, OracleCov: ds.Cov, OracleMean: zeroMean},
			recon.NewBEDR(cfg.Sigma2),
		},
		{
			"BE-DR+clip",
			&recon.BEDR{Sigma2: cfg.Sigma2, OracleCov: ds.Cov, OracleMean: zeroMean},
			&recon.BEDR{Sigma2: cfg.Sigma2, Shrink: true},
		},
	}
	for _, pr := range pairs {
		if err := run(pr.name, pr.oracle, out.Oracle); err != nil {
			return nil, err
		}
		if err := run(pr.name, pr.estimated, out.Estimated); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String renders the ablation table.
func (o *OracleAblation) String() string {
	s := fmt.Sprintf("%-10s %12s %12s %10s\n", "attack", "oracle Σx", "estimated", "gap")
	for _, name := range []string{"PCA-DR", "BE-DR", "BE-DR+clip"} {
		or, es := o.Oracle[name], o.Estimated[name]
		var gap float64
		if or > 0 {
			gap = (es - or) / or
		}
		s += fmt.Sprintf("%-10s %12.4f %12.4f %9.1f%%\n", name, or, es, 100*gap)
	}
	return s
}
