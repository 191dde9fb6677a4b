// Package dist provides the probability distributions used throughout the
// library: the univariate noise laws of the randomization model (Normal,
// Laplace, Uniform) behind the Continuous interface, and the multivariate
// normal used both to synthesize correlated datasets and to draw the
// correlated noise of the paper's §7 defense.
//
// In the notation of Huang, Du & Chen (SIGMOD 2005), a Continuous value is
// the public noise density f_R of the additive scheme Y = X + R (§3), and
// MultivariateNormal realizes N(μ, Σ) via the Cholesky factor of Σ — the
// construction behind both the synthetic data of §8.1 and the correlated
// noise R ~ N(0, Σ_R) of Eq. 14.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"randpriv/internal/mat"
)

// Continuous is a univariate continuous distribution with a known density.
// It is the interface the reconstruction attacks require of the noise:
// the randomization model assumes f_R is public (§3 of the paper).
type Continuous interface {
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// PDF evaluates the density f(x).
	PDF(x float64) float64
	// Rand draws one sample using rng.
	Rand(rng *rand.Rand) float64
}

// Normal is the N(Mu, Sigma²) distribution. Sigma is the standard
// deviation, not the variance.
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns N(mu, sigma²).
func NewNormal(mu, sigma float64) Normal {
	if sigma <= 0 {
		panic(fmt.Sprintf("dist: Normal sigma must be positive, got %v", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Mean implements Continuous.
func (d Normal) Mean() float64 { return d.Mu }

// Variance implements Continuous.
func (d Normal) Variance() float64 { return d.Sigma * d.Sigma }

// PDF implements Continuous.
func (d Normal) PDF(x float64) float64 { return d.pdf(x, d.norm()) }

// PDFRow sets row[k] = PDF(y − xs[k]) for every k, bit for bit, with
// the normaliser computed once for the row. row must hold len(xs)
// values.
func (d Normal) PDFRow(row []float64, y float64, xs []float64) {
	norm := d.norm()
	row = row[:len(xs)]
	for k, x := range xs {
		row[k] = d.pdf(y-x, norm)
	}
}

// norm is the normaliser σ·√(2π).
func (d Normal) norm() float64 { return d.Sigma * math.Sqrt(2*math.Pi) }

// pdf is the density at x given the normaliser: PDF's one expression.
func (d Normal) pdf(x, norm float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return math.Exp(-0.5*z*z) / norm
}

// Rand implements Continuous.
func (d Normal) Rand(rng *rand.Rand) float64 {
	return d.Mu + d.Sigma*rng.NormFloat64()
}

// Laplace is the Laplace(Mu, B) distribution with density
// f(x) = exp(-|x-Mu|/B) / (2B) and variance 2B².
type Laplace struct {
	Mu float64
	B  float64
}

// NewLaplace returns Laplace(mu, b) with scale b.
func NewLaplace(mu, b float64) Laplace {
	if b <= 0 {
		panic(fmt.Sprintf("dist: Laplace scale must be positive, got %v", b))
	}
	return Laplace{Mu: mu, B: b}
}

// Mean implements Continuous.
func (d Laplace) Mean() float64 { return d.Mu }

// Variance implements Continuous.
func (d Laplace) Variance() float64 { return 2 * d.B * d.B }

// PDF implements Continuous.
func (d Laplace) PDF(x float64) float64 { return d.pdf(x, d.norm()) }

// PDFRow sets row[k] = PDF(y − xs[k]) for every k, bit for bit, with
// the normaliser computed once for the row. row must hold len(xs)
// values.
func (d Laplace) PDFRow(row []float64, y float64, xs []float64) {
	norm := d.norm()
	row = row[:len(xs)]
	for k, x := range xs {
		row[k] = d.pdf(y-x, norm)
	}
}

// norm is the normaliser 2B.
func (d Laplace) norm() float64 { return 2 * d.B }

// pdf is the density at x given the normaliser: PDF's one expression.
func (d Laplace) pdf(x, norm float64) float64 {
	return math.Exp(-math.Abs(x-d.Mu)/d.B) / norm
}

// Rand implements Continuous. It uses inverse-transform sampling on a
// single uniform draw so each sample costs exactly one rng call.
func (d Laplace) Rand(rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return d.Mu - d.B*math.Log(1-2*u)
	}
	return d.Mu + d.B*math.Log(1+2*u)
}

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	A float64
	B float64
}

// NewUniform returns Uniform(a, b) on the interval [a, b].
func NewUniform(a, b float64) Uniform {
	if b <= a {
		panic(fmt.Sprintf("dist: Uniform needs a < b, got [%v, %v]", a, b))
	}
	return Uniform{A: a, B: b}
}

// Mean implements Continuous.
func (d Uniform) Mean() float64 { return (d.A + d.B) / 2 }

// Variance implements Continuous.
func (d Uniform) Variance() float64 {
	w := d.B - d.A
	return w * w / 12
}

// PDF implements Continuous.
func (d Uniform) PDF(x float64) float64 {
	if x < d.A || x > d.B {
		return 0
	}
	return 1 / (d.B - d.A)
}

// Rand implements Continuous.
func (d Uniform) Rand(rng *rand.Rand) float64 {
	return d.A + (d.B-d.A)*rng.Float64()
}

// MultivariateNormal is N(μ, Σ) in m dimensions, sampled through the
// Cholesky factor L of Σ: x = μ + L·z with z ~ N(0, I).
type MultivariateNormal struct {
	mu   []float64
	cov  *mat.Dense
	chol *mat.Cholesky
}

// ErrBadCovariance is returned when the supplied covariance is not
// symmetric positive definite (even after a tiny diagonal jitter).
var ErrBadCovariance = errors.New("dist: covariance is not positive definite")

// NewMultivariateNormal returns N(mu, sigma). A nil mu means the zero
// vector. sigma must be square, symmetric, and positive definite; a
// jitter of 1e-10·max|Σii| is tolerated on the diagonal to absorb the
// round-off of covariances assembled as Q·Λ·Qᵀ.
func NewMultivariateNormal(mu []float64, sigma *mat.Dense) (*MultivariateNormal, error) {
	m := sigma.Rows()
	if sigma.Cols() != m {
		return nil, fmt.Errorf("dist: covariance must be square, got %dx%d", sigma.Rows(), sigma.Cols())
	}
	if m == 0 {
		return nil, fmt.Errorf("dist: covariance is empty")
	}
	if mu == nil {
		mu = make([]float64, m)
	}
	if len(mu) != m {
		return nil, fmt.Errorf("dist: mean has %d entries, covariance is %dx%d", len(mu), m, m)
	}
	chol, err := mat.FactorizeCholesky(sigma)
	if errors.Is(err, mat.ErrNotPositiveDefinite) {
		var maxDiag float64
		for i := 0; i < m; i++ {
			if v := math.Abs(sigma.At(i, i)); v > maxDiag {
				maxDiag = v
			}
		}
		chol, err = mat.FactorizeCholesky(mat.AddScaledIdentity(sigma, 1e-10*maxDiag))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCovariance, err)
	}
	return &MultivariateNormal{
		mu:   append([]float64(nil), mu...),
		cov:  sigma.Clone(),
		chol: chol,
	}, nil
}

// Dim returns the dimension m.
func (d *MultivariateNormal) Dim() int { return len(d.mu) }

// Mean returns a copy of μ.
func (d *MultivariateNormal) Mean() []float64 {
	return append([]float64(nil), d.mu...)
}

// Covariance returns a copy of Σ.
func (d *MultivariateNormal) Covariance() *mat.Dense { return d.cov.Clone() }

// Rand draws one sample as a length-m vector.
func (d *MultivariateNormal) Rand(rng *rand.Rand) []float64 {
	m := len(d.mu)
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	x := d.chol.LMulVec(z)
	for i := range x {
		x[i] += d.mu[i]
	}
	return x
}

// Sample draws n i.i.d. samples as the rows of an n×m matrix.
func (d *MultivariateNormal) Sample(n int, rng *rand.Rand) *mat.Dense {
	out := mat.Zeros(n, d.Dim())
	for i := 0; i < n; i++ {
		out.SetRow(i, d.Rand(rng))
	}
	return out
}
