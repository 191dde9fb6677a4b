package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"randpriv/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestMain doubles the test binary as the CLI itself: with
// RANDPRIV_RUN_MAIN=1 it runs main() instead of the tests, so the golden
// tests can assert real exit codes and the real stdout/stderr split
// without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("RANDPRIV_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI executes the randpriv CLI (via the re-exec trick above) and
// returns its stdout, stderr and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RANDPRIV_RUN_MAIN=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden file (rerun with -update if intended)\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestGenPerturbAttackPipeline(t *testing.T) {
	data := tempPath(t, "data.csv")
	disg := tempPath(t, "disg.csv")

	if err := runGen([]string{"-n", "300", "-m", "8", "-p", "2", "-seed", "3", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	tbl, err := loadTable(data)
	if err != nil {
		t.Fatalf("loadTable: %v", err)
	}
	if n, m := tbl.Dims(); n != 300 || m != 8 {
		t.Fatalf("generated dims %dx%d, want 300x8", n, m)
	}

	if err := runPerturb([]string{"-in", data, "-sigma", "5", "-seed", "4", "-out", disg}); err != nil {
		t.Fatalf("perturb: %v", err)
	}
	dTbl, err := loadTable(disg)
	if err != nil {
		t.Fatalf("loadTable disguised: %v", err)
	}
	if n, m := dTbl.Dims(); n != 300 || m != 8 {
		t.Fatalf("disguised dims %dx%d, want 300x8", n, m)
	}
	// The disguised data must differ from the original.
	if tbl.Data().EqualApprox(dTbl.Data(), 1e-9) {
		t.Fatal("perturb produced identical data")
	}

	if err := runAttack([]string{"-original", data, "-disguised", disg, "-sigma", "5"}); err != nil {
		t.Fatalf("attack: %v", err)
	}
}

func TestPerturbCorrelatedFlag(t *testing.T) {
	data := tempPath(t, "data.csv")
	disg := tempPath(t, "disg.csv")
	if err := runGen([]string{"-n", "200", "-m", "6", "-p", "2", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := runPerturb([]string{"-in", data, "-sigma", "5", "-correlated", "-out", disg}); err != nil {
		t.Fatalf("perturb -correlated: %v", err)
	}
	if err := runAttack([]string{"-original", data, "-disguised", disg, "-sigma", "5", "-correlated"}); err != nil {
		t.Fatalf("attack -correlated: %v", err)
	}
}

func TestPerturbRequiresInput(t *testing.T) {
	if err := runPerturb([]string{"-sigma", "5"}); err == nil {
		t.Fatal("perturb without -in must error")
	}
}

func TestAttackRequiresPaths(t *testing.T) {
	if err := runAttack([]string{"-sigma", "5"}); err == nil {
		t.Fatal("attack without paths must error")
	}
}

func TestAttackMissingFile(t *testing.T) {
	missing := tempPath(t, "nope.csv")
	if err := runAttack([]string{"-original", missing, "-disguised", missing}); err == nil {
		t.Fatal("attack on missing files must error")
	}
}

func TestRunExperimentSmall(t *testing.T) {
	csvOut := tempPath(t, "fig.csv")
	// Figure 4 at small n is the fastest full sweep; figure 1-3 default
	// sweeps go to m=100, so use figure 4 for the CLI smoke test.
	if err := runExperiment([]string{"-id", "4", "-n", "120", "-skip-udr"}); err != nil {
		t.Fatalf("experiment 4: %v", err)
	}
	_ = csvOut
}

func TestRunExperimentBadID(t *testing.T) {
	if err := runExperiment([]string{"-id", "9"}); err == nil {
		t.Fatal("id=9 must error")
	}
}

func TestRunExperimentFigure4CSVUnsupported(t *testing.T) {
	if err := runExperiment([]string{"-id", "4", "-n", "120", "-csv", tempPath(t, "x.csv")}); err == nil {
		t.Fatal("figure 4 with -csv must error")
	}
}

func TestRunExperimentCustomSweeps(t *testing.T) {
	// Tiny custom sweeps keep figures 1-3 fast enough for tests.
	for _, args := range [][]string{
		{"-id", "1", "-n", "150", "-skip-udr", "-sweep", "5,10"},
		{"-id", "2", "-n", "150", "-skip-udr", "-sweep", "2,5"},
		{"-id", "3", "-n", "150", "-skip-udr", "-sweep", "1,25"},
	} {
		if err := runExperiment(args); err != nil {
			t.Fatalf("experiment %v: %v", args, err)
		}
	}
}

func TestRunExperimentCSVOutput(t *testing.T) {
	out := tempPath(t, "fig1.csv")
	if err := runExperiment([]string{"-id", "1", "-n", "120", "-skip-udr", "-sweep", "5,10", "-csv", out}); err != nil {
		t.Fatalf("experiment with csv: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
}

func TestRunExperimentBadSweep(t *testing.T) {
	if err := runExperiment([]string{"-id", "1", "-sweep", "5,banana"}); err == nil {
		t.Fatal("non-numeric sweep must error")
	}
}

func TestRunSmooth(t *testing.T) {
	// Build a small serially-dependent CSV.
	in := tempPath(t, "series.csv")
	out := tempPath(t, "smoothed.csv")
	var b strings.Builder
	b.WriteString("load\n")
	v := 0.0
	for i := 0; i < 200; i++ {
		v = 0.9*v + float64((i*37)%11)/11 - 0.5 // deterministic pseudo-noise
		fmt.Fprintf(&b, "%g\n", 10+v)
	}
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("write input: %v", err)
	}
	if err := runSmooth([]string{"-in", in, "-sigma", "0.3", "-out", out}); err != nil {
		t.Fatalf("smooth: %v", err)
	}
	tbl, err := loadTable(out)
	if err != nil {
		t.Fatalf("load output: %v", err)
	}
	if n, m := tbl.Dims(); n != 200 || m != 1 {
		t.Fatalf("output dims %dx%d, want 200x1", n, m)
	}
}

func TestRunSmoothRequiresInput(t *testing.T) {
	if err := runSmooth(nil); err == nil {
		t.Fatal("smooth without -in must error")
	}
}

func TestRunUtility(t *testing.T) {
	if err := runUtility([]string{"-n", "300", "-m", "6"}); err != nil {
		t.Fatalf("utility: %v", err)
	}
}

// TestBadFlagReturnsError covers the ContinueOnError switch: an unknown
// flag must surface as an error on main's exit path, not call os.Exit(2)
// from inside the flag package.
func TestBadFlagReturnsError(t *testing.T) {
	for name, run := range map[string]func([]string) error{
		"gen":        runGen,
		"perturb":    runPerturb,
		"attack":     runAttack,
		"experiment": runExperiment,
		"smooth":     runSmooth,
		"utility":    runUtility,
	} {
		if err := run([]string{"-definitely-not-a-flag"}); err == nil {
			t.Errorf("%s: unknown flag must return an error", name)
		}
		if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s: -h returned %v, want flag.ErrHelp", name, err)
		}
	}
}

func TestAttackRejectsBadSigma(t *testing.T) {
	data := tempPath(t, "data.csv")
	if err := runGen([]string{"-n", "50", "-m", "4", "-p", "2", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	for _, sigma := range []string{"0", "-3", "NaN", "+Inf"} {
		err := runAttack([]string{"-original", data, "-disguised", data, "-sigma", sigma})
		if err == nil || !strings.Contains(err.Error(), "-sigma must be a positive finite number") {
			t.Errorf("sigma=%s: err = %v, want -sigma validation failure", sigma, err)
		}
	}
}

func TestPerturbRejectsBadSigma(t *testing.T) {
	data := tempPath(t, "data.csv")
	if err := runGen([]string{"-n", "50", "-m", "4", "-p", "2", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := runPerturb([]string{"-in", data, "-sigma", "0"}); err == nil {
		t.Error("perturb with sigma=0 must error")
	}
}

// TestAttackCorrelatedConstantData covers the trace guard: (near-)constant
// disguised data has ~zero covariance trace, so the σ²·m/trace scale
// would blow up; the CLI must fail with a diagnostic instead.
func TestAttackCorrelatedConstantData(t *testing.T) {
	constant := tempPath(t, "const.csv")
	var b strings.Builder
	b.WriteString("a,b\n")
	for i := 0; i < 40; i++ {
		b.WriteString("3.5,-1\n")
	}
	if err := os.WriteFile(constant, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-stream", "-chunk", "8"}} {
		args := append([]string{"-original", constant, "-disguised", constant, "-correlated"}, extra...)
		err := runAttack(args)
		if err == nil || !strings.Contains(err.Error(), "(near-)constant") {
			t.Errorf("args %v: err = %v, want near-constant diagnostic", extra, err)
		}
	}
}

// TestPerturbStreamMatchesInMemory checks the streaming publisher path:
// same seed, same noise order, byte-identical output file.
func TestPerturbStreamMatchesInMemory(t *testing.T) {
	data := tempPath(t, "data.csv")
	if err := runGen([]string{"-n", "150", "-m", "5", "-p", "2", "-seed", "9", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	inMem := tempPath(t, "mem.csv")
	streamed := tempPath(t, "stream.csv")
	if err := runPerturb([]string{"-in", data, "-sigma", "4", "-seed", "11", "-out", inMem}); err != nil {
		t.Fatalf("perturb: %v", err)
	}
	if err := runPerturb([]string{"-in", data, "-sigma", "4", "-seed", "11", "-stream", "-chunk", "32", "-out", streamed}); err != nil {
		t.Fatalf("perturb -stream: %v", err)
	}
	a, err := os.ReadFile(inMem)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b2) {
		t.Fatal("streaming perturb output differs from in-memory output")
	}
}

func TestAttackStreamPipeline(t *testing.T) {
	data := tempPath(t, "data.csv")
	disg := tempPath(t, "disg.csv")
	if err := runGen([]string{"-n", "300", "-m", "8", "-p", "2", "-seed", "3", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := runPerturb([]string{"-in", data, "-sigma", "5", "-seed", "4", "-stream", "-out", disg}); err != nil {
		t.Fatalf("perturb: %v", err)
	}
	if err := runAttack([]string{"-original", data, "-disguised", disg, "-sigma", "5", "-stream", "-chunk", "64"}); err != nil {
		t.Fatalf("attack -stream: %v", err)
	}
	// Correlated streaming variant over a correlated-noise disguise.
	disg2 := tempPath(t, "disg2.csv")
	if err := runPerturb([]string{"-in", data, "-sigma", "5", "-correlated", "-stream", "-chunk", "50", "-out", disg2}); err != nil {
		t.Fatalf("perturb -correlated -stream: %v", err)
	}
	if err := runAttack([]string{"-original", data, "-disguised", disg2, "-sigma", "5", "-correlated", "-stream", "-chunk", "64"}); err != nil {
		t.Fatalf("attack -correlated -stream: %v", err)
	}
}

func TestAttackStreamBadChunk(t *testing.T) {
	data := tempPath(t, "data.csv")
	if err := runGen([]string{"-n", "20", "-m", "3", "-p", "1", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := runAttack([]string{"-original", data, "-disguised", data, "-stream", "-chunk", "0"}); err == nil {
		t.Error("chunk=0 must error")
	}
	if err := runPerturb([]string{"-in", data, "-stream", "-chunk", "-5"}); err == nil {
		t.Error("negative chunk must error")
	}
}

// --- Golden tests: one per subcommand, pinning exit code, the
// stdout/stderr split, and byte-stable output for fixed seeds. ---

func TestGoldenGen(t *testing.T) {
	stdout, stderr, code := runCLI(t, "gen", "-n", "6", "-m", "3", "-p", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if stderr != "" {
		t.Errorf("gen wrote to stderr: %q", stderr)
	}
	checkGolden(t, "gen", stdout)
}

func TestGoldenPerturb(t *testing.T) {
	data := tempPath(t, "data.csv")
	if _, stderr, code := runCLI(t, "gen", "-n", "8", "-m", "3", "-p", "1", "-seed", "7", "-out", data); code != 0 {
		t.Fatalf("gen: exit %d, stderr: %s", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "perturb", "-in", data, "-sigma", "2", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if want := "perturbed with additive i.i.d. noise (var=4)\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	checkGolden(t, "perturb", stdout)
}

func TestGoldenAttack(t *testing.T) {
	data := tempPath(t, "data.csv")
	disg := tempPath(t, "disg.csv")
	if _, stderr, code := runCLI(t, "gen", "-n", "200", "-m", "5", "-p", "2", "-seed", "7", "-out", data); code != 0 {
		t.Fatalf("gen: exit %d, stderr: %s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "perturb", "-in", data, "-sigma", "3", "-seed", "5", "-out", disg); code != 0 {
		t.Fatalf("perturb: exit %d, stderr: %s", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "attack", "-original", data, "-disguised", disg, "-sigma", "3")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if stderr != "" {
		t.Errorf("attack wrote to stderr: %q", stderr)
	}
	checkGolden(t, "attack", stdout)
}

// TestGoldenExperiment pins both spellings of a figure regeneration,
// 'experiment -id N' and 'sweep -figure N', to one golden: they are one
// pipeline and print the same bytes.
func TestGoldenExperiment(t *testing.T) {
	flags := []string{"1", "-n", "80", "-seed", "3", "-skip-udr", "-sweep", "6,10"}
	for _, cmd := range [][]string{{"experiment", "-id"}, {"sweep", "-figure"}} {
		stdout, stderr, code := runCLI(t, append(cmd, flags...)...)
		if code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", cmd, code, stderr)
		}
		checkGolden(t, "experiment", stdout)
	}
}

func TestGoldenUtility(t *testing.T) {
	stdout, stderr, code := runCLI(t, "utility", "-n", "200", "-m", "5", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if stderr != "" {
		t.Errorf("utility wrote to stderr: %q", stderr)
	}
	checkGolden(t, "utility", stdout)
}

func TestGoldenSmooth(t *testing.T) {
	in := tempPath(t, "series.csv")
	var b strings.Builder
	b.WriteString("load\n")
	v := 0.0
	for i := 0; i < 120; i++ {
		v = 0.9*v + float64((i*37)%11)/11 - 0.5
		fmt.Fprintf(&b, "%g\n", 10+v)
	}
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "smooth", "-in", in, "-sigma", "0.3")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "AR(1)") {
		t.Errorf("stderr missing the AR(1) model line: %q", stderr)
	}
	checkGolden(t, "smooth", stdout)
}

// TestCLIExitCodes pins the three exit paths of main for every
// subcommand: 0 for -h, 2 for flag-parse failures (with the flag
// package's diagnostic on stderr), 1 for runtime errors (with the
// randpriv: prefix on stderr).
func TestCLIExitCodes(t *testing.T) {
	subcommands := []string{"gen", "perturb", "attack", "experiment", "utility", "smooth"}
	for _, cmd := range subcommands {
		if stdout, stderr, code := runCLI(t, cmd, "-h"); code != 0 {
			t.Errorf("%s -h: exit %d (stderr %q), want 0", cmd, code, stderr)
		} else if stdout != "" {
			t.Errorf("%s -h: usage must go to stderr, stdout got %q", cmd, stdout)
		}
		_, stderr, code := runCLI(t, cmd, "-definitely-not-a-flag")
		if code != 2 {
			t.Errorf("%s with bad flag: exit %d, want 2", cmd, code)
		}
		if !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s with bad flag: stderr %q missing flag diagnostic", cmd, stderr)
		}
	}

	// Runtime errors exit 1 with the randpriv: prefix.
	_, stderr, code := runCLI(t, "perturb", "-sigma", "5")
	if code != 1 {
		t.Errorf("perturb without -in: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "randpriv: perturb: -in is required") {
		t.Errorf("perturb without -in: stderr %q", stderr)
	}

	// Unknown command and no command both exit 2 with usage.
	if _, stderr, code := runCLI(t, "no-such-command"); code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("unknown command: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := runCLI(t); code != 2 || !strings.Contains(stderr, "Commands:") {
		t.Errorf("no command: exit %d, stderr %q", code, stderr)
	}
	if _, _, code := runCLI(t, "help"); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
}

func TestSaveTableStdout(t *testing.T) {
	tbl, err := dataset.ReadCSV(strings.NewReader("a\n1\n2\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	// Redirect stdout to a pipe to keep test output clean.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	saveErr := saveTable(tbl, "-")
	w.Close()
	os.Stdout = old
	if saveErr != nil {
		t.Fatalf("saveTable: %v", saveErr)
	}
	buf := make([]byte, 64)
	n, _ := r.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "a\n1\n2\n") {
		t.Errorf("stdout content = %q", string(buf[:n]))
	}
}
