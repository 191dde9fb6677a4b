package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/sweep"
)

// runSweepCmd executes a declarative parameter sweep locally: the spec's
// grid is compiled into a shared-scan plan (duplicate points collapsed,
// moment sketches built once per group) and evaluated in one engine run,
// the same machinery randprivd uses for multipart POST /v1/jobs
// submissions. With -figure it instead regenerates one of the paper's
// figures, exactly as 'randpriv experiment -id N' does.
func runSweepCmd(args []string) error {
	fs := newFlagSet("sweep")
	data := fs.String("data", "", "input CSV path (spec mode; required)")
	specPath := fs.String("spec", "", "sweep spec JSON path ('-' for stdin; spec mode; required)")
	out := fs.String("out", "-", "result JSON path ('-' for stdout)")
	chunk := fs.Int("chunk", 4096, "default chunk rows when the spec omits them")
	maxPoints := fs.Int("max-points", 4096, "max grid points the spec may expand to (negative removes the cap)")
	figure := fs.Int("figure", 0, "regenerate paper figure 1-4 through the sweep engine instead of running a spec")
	n := fs.Int("n", 1000, "records per sweep point (-figure mode)")
	sigma := fs.Float64("sigma", 5, "noise standard deviation (-figure mode)")
	seed := fs.Int64("seed", 2005, "random seed (-figure mode)")
	skipUDR := fs.Bool("skip-udr", false, "skip the UDR series (-figure mode, much faster at m=100)")
	sweepFlag := fs.String("sweep", "", "comma-separated x values overriding the figure defaults (-figure mode)")
	csvPath := fs.String("csv", "", "also write the figure as CSV (-figure mode, figures 1-3)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *figure != 0 {
		return runFigure("sweep", *figure, *n, *sigma, *seed, *skipUDR, *sweepFlag, *csvPath)
	}
	env := sweep.Env{Reg: core.Builtins(), WS: mat.NewWorkspace()}

	if *data == "" || *specPath == "" {
		return fmt.Errorf("sweep: -data and -spec are required (or use -figure 1-4)")
	}
	specBytes, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec(specBytes)
	if err != nil {
		return err
	}
	limit := *maxPoints
	if limit < 0 {
		limit = 0 // sweep.Expand: 0 means unbounded
	}
	grid, err := spec.Expand(env.Reg, *chunk, limit)
	if err != nil {
		return err
	}
	plan, err := sweep.Compile(env.Reg, grid)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %d grid points (%d duplicates collapsed), %d planned passes vs %d sequential\n",
		len(plan.Points)+plan.Collapsed, plan.Collapsed, plan.PlannedPasses, plan.SequentialPasses)

	digest, err := fileDigest(*data)
	if err != nil {
		return err
	}
	chunkRows := spec.Chunk
	if chunkRows == 0 {
		chunkRows = *chunk
	}
	src, err := dataset.OpenCSVChunks(*data, chunkRows)
	if err != nil {
		return err
	}
	defer src.Close()
	res, err := sweep.Execute(context.Background(), sweep.ExecConfig{Env: env, Digest: digest}, plan, src, src.Names())
	if err != nil {
		return err
	}
	body, err := sweep.MarshalResult(res)
	if err != nil {
		return err
	}
	return withOutput(*out, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// readSpec loads the sweep spec from path, or stdin when path is "-".
func readSpec(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// fileDigest is the SHA-256 of the file's bytes, hex-encoded — the same
// dataset digest randprivd stamps into reports, so a local sweep's
// report bodies match the server's for the same CSV.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
