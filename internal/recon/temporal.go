package recon

import (
	"fmt"

	"randpriv/internal/mat"
	"randpriv/internal/stat"
	"randpriv/internal/tseries"
)

// TemporalBEDR is the combined-channel attack: it exploits the paper's
// first disclosure channel (cross-attribute correlation, §5–§6) and its
// second (serial sample dependency, §3) *simultaneously*. Rows of the
// disguised matrix are treated as consecutive time steps of a vector
// AR(1) process whose stationary covariance is the recovered Σx:
//
//	x_t = μ + φ·(x_{t−1} − μ) + w_t,   w_t ~ N(0, (1−φ²)·Σx)
//	y_t = x_t + r_t,                    r_t ~ N(0, σ²·I)
//
// φ is estimated per attribute from the disguised stream (the lag-ratio
// trick of package tseries, immune to i.i.d. noise) and pooled; Σx comes
// from Theorem 5.1. Reconstruction is a full vector Kalman filter plus
// Rauch–Tung–Striebel smoothing.
//
// On data with both structures, this strictly dominates plain BE-DR
// (which ignores time) and per-column smoothing (which ignores
// correlation): each channel removes noise the other cannot reach.
// With φ = 0 the smoother's stationary solution coincides with BE-DR.
type TemporalBEDR struct {
	// Sigma2 is the i.i.d. per-entry noise variance σ².
	Sigma2 float64
	// Phi, when non-nil, fixes the AR coefficient instead of estimating
	// it from the disguised data.
	Phi *float64
	// OracleCov optionally replaces the Theorem 5.1 estimate of Σx.
	OracleCov *mat.Dense
	// Shrink applies eigenvalue clipping to the estimated Σx (see BEDR).
	Shrink bool
}

// NewTemporalBEDR returns the attack with estimated φ and Σx.
func NewTemporalBEDR(sigma2 float64) *TemporalBEDR {
	return &TemporalBEDR{Sigma2: sigma2}
}

// Name implements Reconstructor.
func (a *TemporalBEDR) Name() string { return "T-BE-DR" }

// EstimatePhi pools the per-attribute AR(1) coefficient estimates from
// the disguised data (median across attributes, clamped to [0, 0.999];
// negative pooled persistence is treated as none).
func (a *TemporalBEDR) EstimatePhi(y *mat.Dense) (float64, error) {
	if err := sigma2Valid(a.Sigma2); err != nil {
		return 0, err
	}
	_, m := y.Dims()
	phis := make([]float64, 0, m)
	for j := 0; j < m; j++ {
		model, err := tseries.EstimateAR1(y.Col(j), a.Sigma2)
		if err != nil {
			return 0, fmt.Errorf("recon: T-BE-DR attribute %d: %w", j, err)
		}
		phis = append(phis, model.Phi)
	}
	phi := stat.Quantile(phis, 0.5)
	if phi < 0 {
		phi = 0
	}
	if phi > 0.999 {
		phi = 0.999
	}
	return phi, nil
}

// Reconstruct implements Reconstructor.
func (a *TemporalBEDR) Reconstruct(y *mat.Dense) (*mat.Dense, error) {
	if err := validateNonEmpty(y); err != nil {
		return nil, err
	}
	if err := sigma2Valid(a.Sigma2); err != nil {
		return nil, err
	}
	n, m := y.Dims()

	var phi float64
	if a.Phi != nil {
		phi = *a.Phi
		if phi < 0 || phi >= 1 {
			return nil, fmt.Errorf("recon: T-BE-DR φ = %v outside [0,1)", phi)
		}
	} else {
		var err error
		phi, err = a.EstimatePhi(y)
		if err != nil {
			return nil, err
		}
	}

	// Σx (stationary covariance of the state).
	var sigmaX *mat.Dense
	if a.OracleCov != nil {
		if a.OracleCov.Rows() != m || a.OracleCov.Cols() != m {
			return nil, fmt.Errorf("recon: oracle covariance is %dx%d, want %dx%d",
				a.OracleCov.Rows(), a.OracleCov.Cols(), m, m)
		}
		sigmaX = a.OracleCov
	} else {
		est := stat.RecoverCovariance(stat.CovarianceMatrix(y), a.Sigma2)
		var err error
		if a.Shrink {
			sigmaX, err = clipSpectrum(nil, est)
		} else {
			sigmaX, err = ensurePositiveDefinite(nil, est, 1e-6)
		}
		if err != nil {
			return nil, fmt.Errorf("recon: T-BE-DR covariance repair: %w", err)
		}
	}

	centered, means := y.Clone(), make([]float64, m)
	stat.CenterColumnsInPlace(centered, means)
	q := mat.Scale(1-phi*phi, sigmaX) // innovation covariance keeps Σx stationary

	// Forward Kalman filter over vector states.
	filtMean := make([][]float64, n) // x̂_{t|t}
	predMean := make([][]float64, n) // x̂_{t|t−1}
	filtCov := make([]*mat.Dense, n) // P_{t|t}
	predCov := make([]*mat.Dense, n) // P_{t|t−1}

	identity := mat.Identity(m)
	for t := 0; t < n; t++ {
		if t == 0 {
			predMean[t] = make([]float64, m)
			predCov[t] = sigmaX.Clone()
		} else {
			pm := make([]float64, m)
			for j, v := range filtMean[t-1] {
				pm[j] = phi * v
			}
			predMean[t] = pm
			predCov[t] = mat.Add(mat.Scale(phi*phi, filtCov[t-1]), q)
		}
		// Gain K = P_pred (P_pred + σ²I)⁻¹.
		innovCov := mat.AddScaledIdentity(predCov[t], a.Sigma2)
		innovInv, err := mat.InverseSPD(innovCov)
		if err != nil {
			return nil, fmt.Errorf("recon: T-BE-DR innovation covariance at t=%d: %w", t, err)
		}
		gain := mat.Mul(predCov[t], innovInv)

		resid := make([]float64, m)
		row := centered.RawRow(t)
		for j := range resid {
			resid[j] = row[j] - predMean[t][j]
		}
		corr := mat.MulVec(gain, resid)
		fm := make([]float64, m)
		for j := range fm {
			fm[j] = predMean[t][j] + corr[j]
		}
		filtMean[t] = fm
		filtCov[t] = mat.Mul(mat.Sub(identity, gain), predCov[t])
	}

	// RTS backward smoother (means only).
	smooth := make([][]float64, n)
	smooth[n-1] = filtMean[n-1]
	for t := n - 2; t >= 0; t-- {
		predInv, err := mat.InverseSPD(predCov[t+1])
		if err != nil {
			return nil, fmt.Errorf("recon: T-BE-DR smoother at t=%d: %w", t, err)
		}
		j := mat.Scale(phi, mat.Mul(filtCov[t], predInv))
		diff := make([]float64, m)
		for k := range diff {
			diff[k] = smooth[t+1][k] - predMean[t+1][k]
		}
		corr := mat.MulVec(j, diff)
		sm := make([]float64, m)
		for k := range sm {
			sm[k] = filtMean[t][k] + corr[k]
		}
		smooth[t] = sm
	}

	out := mat.Zeros(n, m)
	for t := 0; t < n; t++ {
		row := out.RawRow(t)
		for j := range row {
			row[j] = smooth[t][j] + means[j]
		}
	}
	return out, nil
}
