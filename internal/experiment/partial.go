package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/synth"
)

// PartialPoint is one step of the partial-disclosure sweep: with k
// attributes disclosed exactly, how well do the remaining ones
// reconstruct?
type PartialPoint struct {
	// Known is the number of disclosed attributes.
	Known int
	// RMSE is the reconstruction error on the attributes that stay
	// secret in every sweep step (a fixed evaluation set, so points are
	// comparable).
	RMSE float64
	// BaselineRMSE is plain BE-DR (k=0 knowledge) on the same attributes.
	BaselineRMSE float64
}

// PartialFigure is the §3 "Partial Value Disclosure" quantification the
// paper calls for: privacy of the undisclosed attributes as a function of
// how many attributes have leaked through side channels.
type PartialFigure struct {
	Title  string
	Points []PartialPoint
}

// PartialDisclosureSweep discloses 0, 1, 2, … attributes of a correlated
// data set and measures reconstruction of a fixed held-secret suffix.
// The maximum disclosure is m/2, so the evaluation set (the second half
// of the attributes) never overlaps the disclosed set.
func PartialDisclosureSweep(cfg Config, m int, ks []int) (*PartialFigure, error) {
	cfg = cfg.withDefaults()
	if m < 4 {
		return nil, fmt.Errorf("experiment: partial sweep needs m >= 4, got %d", m)
	}
	if len(ks) == 0 {
		ks = []int{0, 1, 2, 4, 8}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	spec, err := synth.BudgetedSpectrum(m, max(2, m/10), cfg.Tail, cfg.AvgVariance)
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

	// Fixed evaluation set: the second half of the attributes.
	evalCols := make([]int, 0, m-m/2)
	for j := m / 2; j < m; j++ {
		evalCols = append(evalCols, j)
	}
	truthEval := extractCols(ds.X, evalCols)

	baseAttack := recon.NewBEDR(cfg.Sigma2)
	baseHat, err := baseAttack.Reconstruct(pert.Y)
	if err != nil {
		return nil, err
	}
	baseline := stat.RMSE(extractCols(baseHat, evalCols), truthEval)

	fig := &PartialFigure{
		Title: fmt.Sprintf("undisclosed-attribute RMSE vs #disclosed (m=%d, σ²=%g)", m, cfg.Sigma2),
	}
	for _, k := range ks {
		if k < 0 || k > m/2 {
			return nil, fmt.Errorf("experiment: k=%d outside [0,%d]", k, m/2)
		}
	}
	// The disguised data is fixed; each disclosure level is an
	// independent (deterministic) reconstruction, so the sweep runs on
	// the worker pool like the figure sweeps.
	points := make([]PartialPoint, len(ks))
	err = Runner{}.Run(len(ks), cfg.Seed, func(i int, _ *rand.Rand) error {
		k := ks[i]
		known := make([]int, k)
		for j := range known {
			known[j] = j
		}
		attack := &recon.PartialDisclosure{Sigma2: cfg.Sigma2, Known: known}
		if k > 0 {
			attack.KnownValues = extractCols(ds.X, known)
		}
		xhat, err := attack.Reconstruct(pert.Y)
		if err != nil {
			return fmt.Errorf("experiment: partial k=%d: %w", k, err)
		}
		points[i] = PartialPoint{
			Known:        k,
			RMSE:         stat.RMSE(extractCols(xhat, evalCols), truthEval),
			BaselineRMSE: baseline,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Points = points
	return fig, nil
}

// extractCols copies the listed columns into a new matrix.
func extractCols(x *mat.Dense, cols []int) *mat.Dense {
	n, _ := x.Dims()
	out := mat.Zeros(n, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			out.Set(i, j, x.At(i, c))
		}
	}
	return out
}

// String renders the sweep.
func (f *PartialFigure) String() string {
	s := fmt.Sprintf("partial disclosure — %s\n%10s %12s %12s\n", f.Title, "#known", "RMSE", "BE-DR base")
	for _, p := range f.Points {
		s += fmt.Sprintf("%10d %12.4f %12.4f\n", p.Known, p.RMSE, p.BaselineRMSE)
	}
	return s
}
