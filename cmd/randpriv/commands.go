package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/experiment"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/stream"
	"randpriv/internal/synth"
	"randpriv/internal/tseries"
)

// newFlagSet builds a subcommand flag set that reports parse failures as
// ordinary errors instead of calling os.Exit(2) from inside the flag
// package — keeping every CLI error on main's single exit path (and
// making flag errors testable). The -h/-help pseudo-error is translated
// by main.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// usageError marks a flag-parse failure: the flag set has already printed
// the message and usage text, so main must not print it again, and the
// historical usage-error exit code is 2 (what flag.ExitOnError used).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// parseFlags parses args, tagging failures as usage errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// validSigma rejects non-positive and non-finite noise levels at the CLI
// boundary: deep inside the attacks a σ of 0 only surfaces as a cryptic
// covariance/inversion failure, and a NaN would silently poison every
// estimate.
func validSigma(cmd string, sigma float64) error {
	if !(sigma > 0) || math.IsInf(sigma, 0) {
		return fmt.Errorf("%s: -sigma must be a positive finite number, got %v", cmd, sigma)
	}
	return nil
}

// loadTable reads a CSV table from path.
func loadTable(path string) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// withOutput runs fn on the output stream for path ("-" is stdout),
// creating and closing the file as needed.
func withOutput(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveTable writes a CSV table to path (stdout when path is "-").
func saveTable(t *dataset.Table, path string) error {
	return withOutput(path, t.WriteCSV)
}

// noiseShapeFromCov is core.NoiseShapeFromCov with the CLI remedy
// appended to the diagnostic.
func noiseShapeFromCov(covY *mat.Dense, sigma2 float64) (*mat.Dense, error) {
	shaped, err := core.NoiseShapeFromCov(covY, sigma2)
	if err != nil {
		return nil, fmt.Errorf("attack: %w; rerun without -correlated", err)
	}
	return shaped, nil
}

func runGen(args []string) error {
	fs := newFlagSet("gen")
	n := fs.Int("n", 1000, "number of records")
	m := fs.Int("m", 20, "number of attributes")
	p := fs.Int("p", 3, "number of principal components")
	principal := fs.Float64("principal", 400, "principal eigenvalue")
	tail := fs.Float64("tail", 4, "non-principal eigenvalue")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "-", "output CSV path ('-' for stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec := synth.Spectrum{M: *m, P: *p, Principal: *principal, Tail: *tail}
	vals, err := spec.Values()
	if err != nil {
		return err
	}
	ds, err := synth.Generate(*n, vals, nil, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	tbl, err := dataset.New(nil, ds.X)
	if err != nil {
		return err
	}
	return saveTable(tbl, *out)
}

func runPerturb(args []string) error {
	fs := newFlagSet("perturb")
	in := fs.String("in", "", "input CSV path (required)")
	out := fs.String("out", "-", "output CSV path ('-' for stdout)")
	sigma := fs.Float64("sigma", 5, "noise standard deviation")
	correlated := fs.Bool("correlated", false, "use the improved correlated-noise scheme")
	seed := fs.Int64("seed", 1, "random seed")
	streaming := fs.Bool("stream", false, "out-of-core mode: never load the full data set")
	chunk := fs.Int("chunk", 4096, "rows per chunk in -stream mode")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("perturb: -in is required")
	}
	if err := validSigma("perturb", *sigma); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	if *streaming {
		return perturbStreaming(*in, *out, *sigma, *correlated, *chunk, rng)
	}
	tbl, err := loadTable(*in)
	if err != nil {
		return err
	}
	var scheme randomize.Scheme
	if *correlated {
		cov := stat.CovarianceMatrix(tbl.Data())
		c, err := randomize.NewCorrelatedLike(cov, *sigma**sigma)
		if err != nil {
			return err
		}
		scheme = c
	} else {
		scheme = randomize.NewAdditiveGaussian(*sigma)
	}
	pert, err := scheme.Perturb(tbl.Data(), rng)
	if err != nil {
		return err
	}
	outTbl, err := dataset.New(tbl.Names(), pert.Y)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perturbed with %s\n", scheme.Describe())
	return saveTable(outTbl, *out)
}

// perturbStreaming disguises a CSV without ever materializing it: the
// additive scheme is a single noising pass; the correlated scheme first
// sketches the data's covariance (pass 1, parallel workers, chunk-order
// merge) and then noises in a second pass. With the same seed the
// additive output is bit-identical to the in-memory path; the correlated
// output matches only up to covariance-estimation rounding (~1e-14
// relative), because Σr's Cholesky factor is built from the chunk-merged
// sketch rather than the in-memory Gram.
func perturbStreaming(in, out string, sigma float64, correlated bool, chunk int, rng *rand.Rand) error {
	if chunk < 1 {
		return fmt.Errorf("perturb: -chunk must be >= 1, got %d", chunk)
	}
	src, err := dataset.OpenCSVChunks(in, chunk)
	if err != nil {
		return err
	}
	defer src.Close()
	var scheme randomize.StreamScheme
	if correlated {
		mo, err := stream.Accumulate(src, 0)
		if err != nil {
			return fmt.Errorf("perturb: covariance pass: %w", err)
		}
		c, err := randomize.NewCorrelatedLike(mo.Covariance(), sigma*sigma)
		if err != nil {
			return err
		}
		scheme = c
	} else {
		scheme = randomize.NewAdditiveGaussian(sigma)
	}
	return withOutput(out, func(w io.Writer) error {
		cw, err := dataset.NewChunkWriter(w, src.Names())
		if err != nil {
			return err
		}
		if err := scheme.PerturbStream(src, cw, rng); err != nil {
			return err
		}
		if err := cw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perturbed %d rows with %s (streaming, %d-row chunks)\n",
			cw.Rows(), scheme.Describe(), chunk)
		return nil
	})
}

func runAttack(args []string) error {
	fs := newFlagSet("attack")
	originalPath := fs.String("original", "", "ground-truth CSV path (required)")
	disguisedPath := fs.String("disguised", "", "disguised CSV path (required)")
	sigma := fs.Float64("sigma", 5, "noise standard deviation assumed by the attacks")
	correlated := fs.Bool("correlated", false, "attack assuming correlated noise shaped like the disguised data")
	streaming := fs.Bool("stream", false, "out-of-core mode: two-pass NDR/PCA-DR/BE-DR, never loading the full data sets")
	chunk := fs.Int("chunk", 4096, "rows per chunk in -stream mode")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *originalPath == "" || *disguisedPath == "" {
		return fmt.Errorf("attack: -original and -disguised are required")
	}
	if err := validSigma("attack", *sigma); err != nil {
		return err
	}
	sigma2 := *sigma * *sigma
	if *streaming {
		return attackStreaming(*originalPath, *disguisedPath, sigma2, *correlated, *chunk)
	}
	orig, err := loadTable(*originalPath)
	if err != nil {
		return err
	}
	disg, err := loadTable(*disguisedPath)
	if err != nil {
		return err
	}
	attacks := core.StandardAttacks(sigma2)
	desc := fmt.Sprintf("additive noise, σ=%.4g (assumed)", *sigma)
	if *correlated {
		// Without the publisher's Σr, the best adversary model is the
		// disguised data's own correlation shape at the stated energy.
		noiseCov, err := noiseShapeFromCov(stat.CovarianceMatrix(disg.Data()), sigma2)
		if err != nil {
			return err
		}
		attacks = core.CorrelatedNoiseAttacks(noiseCov, nil)
		desc = fmt.Sprintf("correlated noise, avg σ²=%.4g (assumed, shape from disguised data)", sigma2)
	}
	report, err := core.Evaluate(orig.Data(), disg.Data(), desc, attacks)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

// attackStreaming runs the streamable attack suite (NDR baseline plus
// PCA-DR and BE-DR) over chunked CSV sources. UDR and SF need the full
// data resident and are skipped; the report notes the mode.
func attackStreaming(originalPath, disguisedPath string, sigma2 float64, correlated bool, chunk int) error {
	if chunk < 1 {
		return fmt.Errorf("attack: -chunk must be >= 1, got %d", chunk)
	}
	origSrc, err := dataset.OpenCSVChunks(originalPath, chunk)
	if err != nil {
		return err
	}
	defer origSrc.Close()
	disgSrc, err := dataset.OpenCSVChunks(disguisedPath, chunk)
	if err != nil {
		return err
	}
	defer disgSrc.Close()

	var attacks []recon.StreamReconstructor
	var desc string
	if correlated {
		// Extra sketch pass to shape the assumed noise covariance.
		mo, err := stream.Accumulate(disgSrc, 0)
		if err != nil {
			return fmt.Errorf("attack: covariance pass: %w", err)
		}
		noiseCov, err := noiseShapeFromCov(mo.Covariance(), sigma2)
		if err != nil {
			return err
		}
		attacks = []recon.StreamReconstructor{
			recon.NewPCADR(sigma2),
			recon.NewBEDRCorrelated(noiseCov, nil),
		}
		desc = fmt.Sprintf("correlated noise, avg σ²=%.4g (assumed, shape from disguised data; streaming, %d-row chunks)", sigma2, chunk)
	} else {
		attacks = []recon.StreamReconstructor{
			recon.NewPCADR(sigma2),
			recon.NewBEDR(sigma2),
		}
		desc = fmt.Sprintf("additive noise, σ²=%.4g (assumed; streaming, %d-row chunks)", sigma2, chunk)
	}
	fmt.Fprintln(os.Stderr, "streaming mode: running NDR/PCA-DR/BE-DR (UDR and SF require the full data in memory)")
	report, err := core.EvaluateStream(origSrc, disgSrc, desc, attacks)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

// parseSweep splits a comma-separated list of numbers.
func parseSweep(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, field := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %w", field, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func toInts(vals []float64) []int {
	out := make([]int, len(vals))
	for i, v := range vals {
		out[i] = int(v)
	}
	return out
}

// runExperiment regenerates one paper figure; it is the other spelling
// of 'randpriv sweep -figure N' and prints the same bytes.
func runExperiment(args []string) error {
	fs := newFlagSet("experiment")
	id := fs.Int("id", 1, "figure number to regenerate (1-4)")
	n := fs.Int("n", 1000, "records per sweep point")
	sigma := fs.Float64("sigma", 5, "noise standard deviation")
	seed := fs.Int64("seed", 2005, "random seed")
	skipUDR := fs.Bool("skip-udr", false, "skip the UDR series (much faster at m=100)")
	csvPath := fs.String("csv", "", "also write the figure as CSV to this path (figures 1-3)")
	sweepVals := fs.String("sweep", "", "comma-separated sweep values overriding the paper defaults (m for fig 1, p for fig 2, tail λ for fig 3, path t for fig 4)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return runFigure("experiment", *id, *n, *sigma, *seed, *skipUDR, *sweepVals, *csvPath)
}

// runFigure regenerates paper figure id through the assessment engine
// and prints it; cmd names the subcommand in errors. Figures 1-3 sweep
// the data substrate, so each x-value runs as its own single-point plan;
// figure 4 shares one substrate across its noise-path grid.
func runFigure(cmd string, id, n int, sigma float64, seed int64, skipUDR bool, sweepVals, csvPath string) error {
	if err := validSigma(cmd, sigma); err != nil {
		return err
	}
	xs, err := parseSweep(sweepVals)
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	cfg := experiment.Config{N: n, Sigma2: sigma * sigma, Seed: seed, SkipUDR: skipUDR}

	var fig *experiment.Figure
	switch id {
	case 1:
		fig, err = experiment.Experiment1(cfg, toInts(xs))
	case 2:
		fig, err = experiment.Experiment2(cfg, toInts(xs))
	case 3:
		fig, err = experiment.Experiment3(cfg, xs)
	case 4:
		fig4, err := experiment.Experiment4(cfg, xs)
		if err != nil {
			return err
		}
		fmt.Print(fig4)
		if csvPath != "" {
			return fmt.Errorf("%s: -csv is not supported for figure 4 (two x columns); copy the text output", cmd)
		}
		return nil
	default:
		return fmt.Errorf("%s: figure must be 1-4, got %d", cmd, id)
	}
	if err != nil {
		return err
	}
	fmt.Print(fig)
	if csvPath == "" {
		return nil
	}
	return withOutput(csvPath, fig.WriteCSV)
}

// runSmooth applies the sample-dependency (time-series) attack to every
// column of a disguised CSV and writes the smoothed reconstruction.
func runSmooth(args []string) error {
	fs := newFlagSet("smooth")
	in := fs.String("in", "", "disguised CSV path (required); rows are time steps")
	out := fs.String("out", "-", "output CSV path ('-' for stdout)")
	sigma := fs.Float64("sigma", 5, "noise standard deviation")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("smooth: -in is required")
	}
	tbl, err := loadTable(*in)
	if err != nil {
		return err
	}
	n, m := tbl.Dims()
	sigma2 := *sigma * *sigma
	result := mat.Zeros(n, m)
	for j, name := range tbl.Names() {
		col, err := tbl.Column(name)
		if err != nil {
			return err
		}
		smoothed, model, err := tseries.Reconstruct(col, sigma2)
		if err != nil {
			return fmt.Errorf("smooth: column %q: %w", name, err)
		}
		result.SetCol(j, smoothed)
		fmt.Fprintf(os.Stderr, "column %-12s AR(1): φ=%.3f innovation=%.3f mean=%.3f\n",
			name, model.Phi, model.Q, model.C)
	}
	outTbl, err := dataset.New(tbl.Names(), result)
	if err != nil {
		return err
	}
	return saveTable(outTbl, *out)
}

func runUtility(args []string) error {
	fs := newFlagSet("utility")
	n := fs.Int("n", 2000, "number of records")
	m := fs.Int("m", 20, "number of attributes")
	sigma := fs.Float64("sigma", 5, "noise standard deviation")
	seed := fs.Int64("seed", 2005, "random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := experiment.Config{N: *n, Sigma2: *sigma * *sigma, Seed: *seed}
	res, err := experiment.UtilityExperiment(cfg, *m, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}
