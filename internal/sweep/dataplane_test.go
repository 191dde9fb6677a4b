package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/faultfs"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
)

// writeTestCSV writes an n×m test data set as CSV under t's temp dir and
// returns its path. The matrix is dropped on return, so a run reading
// the file holds no copy of the upload the engine did not make itself.
func writeTestCSV(t testing.TB, n, m int) string {
	t.Helper()
	data, names := testData(t, n, m, 2, 3)
	tbl, err := dataset.New(names, data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("data-%dx%d.csv", n, m))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOnePoint runs p as a one-point plan through NewGroupExec and Run
// over the CSV at path — the path /v1/assess takes — with wrap threaded
// through every source the engine opens.
func runOnePoint(t testing.TB, env Env, path string, p Params, wrap func(stream.Source) stream.Source) (GroupOutcome, error) {
	t.Helper()
	plan, err := Compile(env.Reg, []Params{p})
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenCSVChunks(path, p.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ge, err := NewGroupExec(env, "d", p.Stream, p.Chunk, len(src.Names()), src, wrap)
	if err != nil {
		return GroupOutcome{}, err
	}
	defer ge.Close()
	out, err := ge.Run(context.Background(), plan.Groups[0].Key, []Params{p})
	if err != nil {
		return GroupOutcome{}, err
	}
	return out[0], nil
}

// TestStreamPlanHeapBounded holds stream mode to its O(chunk + m²)
// memory bound on every engine path, not only /v1/assess: the live heap,
// sampled each time the engine opens a source, must not grow with the
// upload's row count. One resident 32768×6 copy is 1.5 MiB; an engine
// holding the upload or the disguised copy resident fails here.
func TestStreamPlanHeapBounded(t *testing.T) {
	env := Env{Reg: core.Builtins(), WS: mat.NewWorkspace()}
	p := mustExpand(t, `{"defenses":[{"scheme":"additive"}],"chunk":256,"stream":true}`, 0)[0]
	peak := func(n int) uint64 {
		path := writeTestCSV(t, n, 6)
		var top uint64
		var ms runtime.MemStats
		sample := func(s stream.Source) stream.Source {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > top {
				top = ms.HeapAlloc
			}
			return s
		}
		out, err := runOnePoint(t, env, path, p, sample)
		if err != nil || out.Err != "" {
			t.Fatalf("%d rows: err %v, point error %q", n, err, out.Err)
		}
		return top
	}
	small := peak(2048)
	large := peak(32768)
	t.Logf("peak live heap: %d B at 2048 rows, %d B at 32768 rows", small, large)
	if large > small && large-small >= 1<<20 {
		t.Errorf("peak live heap grew by %d B from 2048 to 32768 rows, want < 1 MiB: stream mode holds a copy resident", large-small)
	}
}

// recordingFS records the path of every temp file created through it.
type recordingFS struct {
	faultfs.FS
	mu      sync.Mutex
	created []string
}

func (r *recordingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err == nil {
		r.mu.Lock()
		r.created = append(r.created, f.Name())
		r.mu.Unlock()
	}
	return f, err
}

// spoolFiles lists the files in dir.
func spoolFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSpoolPolicyFollowsMode pins the data plane by mode: stream mode
// writes exactly one upload spool plus one disguised spool per group,
// all in Env's spool dir — each disguised spool gone when its group
// ends, the upload spool gone after Close — and memory mode writes none.
func TestSpoolPolicyFollowsMode(t *testing.T) {
	path := writeTestCSV(t, 150, 4)
	for _, mode := range []struct {
		name string
		spec string
		want func(groups int) int
	}{
		{"stream", `{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"chunk":32,"stream":true}`,
			func(groups int) int { return 1 + groups }},
		{"memory", `{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"chunk":32}`,
			func(int) int { return 0 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &recordingFS{FS: faultfs.OS{}}
			env := Env{Reg: core.Builtins(), WS: mat.NewWorkspace(), FS: fsys, SpoolDir: dir}
			plan, err := Compile(env.Reg, mustExpand(t, mode.spec, 0))
			if err != nil {
				t.Fatal(err)
			}
			src, err := dataset.OpenCSVChunks(path, 32)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			ge, err := NewGroupExec(env, "d", plan.Stream, 32, len(src.Names()), src, nil)
			if err != nil {
				t.Fatal(err)
			}
			resident := 0
			if plan.Stream {
				resident = 1 // the upload spool, until Close
			}
			for _, g := range plan.Groups {
				pts := make([]Params, len(g.Points))
				for i, pi := range g.Points {
					pts[i] = plan.Points[pi].Params
				}
				out, err := ge.Run(context.Background(), g.Key, pts)
				if err != nil {
					t.Fatal(err)
				}
				for _, oc := range out {
					if oc.Err != "" {
						t.Fatalf("point error %q", oc.Err)
					}
				}
				if left := spoolFiles(t, dir); len(left) != resident {
					t.Errorf("after group %s: spool dir holds %v, want %d file(s)", g.Key, left, resident)
				}
			}
			ge.Close()
			if left := spoolFiles(t, dir); len(left) != 0 {
				t.Errorf("after Close: spool dir holds %v, want nothing", left)
			}
			want := mode.want(len(plan.Groups))
			if len(fsys.created) != want {
				t.Fatalf("created %d spools %v, want %d", len(fsys.created), fsys.created, want)
			}
			uploads := 0
			for _, name := range fsys.created {
				if filepath.Dir(name) != dir {
					t.Errorf("spool %s outside the spool dir %s", name, dir)
				}
				if strings.Contains(filepath.Base(name), "upload") {
					uploads++
				}
			}
			if want > 0 && (uploads != 1 || !strings.Contains(filepath.Base(fsys.created[0]), "upload")) {
				t.Errorf("created %v, want the upload spool first and only once", fsys.created)
			}
		})
	}
}

// TestSpoolGroupExecReadsInPlace: an evaluator over an upload that is
// already a float64 spool gives the bytes of one over the CSV, in both
// modes, and writes no upload spool of its own — only each stream
// group's disguised spool — and its Close leaves the borrowed spool as
// it found it. A spool cut mid-row fails construction with the read
// error, not as client data.
func TestSpoolGroupExecReadsInPlace(t *testing.T) {
	path := writeTestCSV(t, 150, 4)
	csv, err := dataset.OpenCSVChunks(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer csv.Close()
	cols := len(csv.Names())
	var spool bytes.Buffer
	if err := dataset.WriteSpool(&spool, cols, func(sink stream.Sink) error {
		_, err := dataset.Validate(csv, cols, sink)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	borrowed := filepath.Join(t.TempDir(), "upload.f64")
	if err := os.WriteFile(borrowed, spool.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() (io.ReadCloser, error) { return os.Open(borrowed) }

	for _, spec := range []string{
		`{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"chunk":32,"stream":true}`,
		`{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"chunk":32}`,
	} {
		env := Env{Reg: core.Builtins(), WS: mat.NewWorkspace()}
		plan, err := Compile(env.Reg, mustExpand(t, spec, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("stream=%v", plan.Stream), func(t *testing.T) {
			runAll := func(ge *GroupExec) [][]byte {
				var bodies [][]byte
				for _, g := range plan.Groups {
					pts := make([]Params, len(g.Points))
					for i, pi := range g.Points {
						pts[i] = plan.Points[pi].Params
					}
					out, err := ge.Run(context.Background(), g.Key, pts)
					if err != nil {
						t.Fatal(err)
					}
					for _, oc := range out {
						if oc.Err != "" {
							t.Fatalf("point error %q", oc.Err)
						}
						bodies = append(bodies, oc.Body)
					}
				}
				return bodies
			}
			ref, err := NewGroupExec(env, "d", plan.Stream, 32, cols, csv, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := runAll(ref)
			ref.Close()

			fsys := &recordingFS{FS: faultfs.OS{}}
			env.FS, env.SpoolDir = fsys, t.TempDir()
			ge, err := NewSpoolGroupExec(env, "d", plan.Stream, 32, open, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ge.Rows() != ref.Rows() {
				t.Errorf("rows = %d, want %d", ge.Rows(), ref.Rows())
			}
			got := runAll(ge)
			ge.Close()
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("point %d: report over the borrowed spool differs from the one over the CSV", i)
				}
			}
			disguised := 0
			if plan.Stream {
				disguised = len(plan.Groups)
			}
			if len(fsys.created) != disguised {
				t.Errorf("created spools %v, want only the %d disguised ones", fsys.created, disguised)
			}
			if left := spoolFiles(t, env.SpoolDir); len(left) != 0 {
				t.Errorf("after Close: spool dir holds %v, want nothing", left)
			}
			if after, err := os.ReadFile(borrowed); err != nil || !bytes.Equal(after, spool.Bytes()) {
				t.Errorf("borrowed spool after Close: err %v, %d bytes, want it unchanged", err, len(after))
			}
		})
	}

	torn := filepath.Join(t.TempDir(), "torn.f64")
	if err := os.WriteFile(torn, spool.Bytes()[:spool.Len()-4], 0o644); err != nil {
		t.Fatal(err)
	}
	env := Env{Reg: core.Builtins(), WS: mat.NewWorkspace(), SpoolDir: t.TempDir()}
	_, err = NewSpoolGroupExec(env, "d", true, 32, func() (io.ReadCloser, error) { return os.Open(torn) }, nil)
	var de *dataset.DataError
	if err == nil || errors.As(err, &de) || !strings.Contains(err.Error(), "truncated mid-row") {
		t.Errorf("torn spool: err %v, want the mid-row read error, not a data error", err)
	}
}

// TestChaosEngineSpoolFaults replays seeded storage faults against the
// engine's stream-mode spools: ENOSPC on an upload or a disguised spool
// write, EIO on a spool read. Each is the engine's storage failing, not
// the caller's data or parameters, so each must end the run in an error
// that is neither a *ParamError nor a *dataset.DataError — never a
// report built from a partial read — and leave no spool file behind.
func TestChaosEngineSpoolFaults(t *testing.T) {
	path := writeTestCSV(t, 120, 4)
	const spec = `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"chunk":32,"stream":true}`
	// Spool reads over the plan: the upload spool's opening header read,
	// then per group a perturbation pass over the upload, the disguised
	// spool's opening header read, the NDR baseline over both copies, the
	// shared sketch and each attack's pass 2 over both copies. A pass is
	// a header read, one read per full 32-row chunk, two for the short
	// last chunk and one at EOF: 7 reads over 120 rows.
	const reads = 1 + 2*(7+1+2*7+7+2*2*7)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := map[string]faultfs.Rule{
			// Each spool takes a header write and one flushed data write.
			"ENOSPC upload write": {Op: faultfs.OpWrite, Path: "randpriv-upload-", After: rng.Intn(2), Err: faultfs.ErrNoSpace},
			"ENOSPC disg write":   {Op: faultfs.OpWrite, Path: "randpriv-disg-", After: rng.Intn(4), Err: faultfs.ErrNoSpace},
			"EIO read":            {Op: faultfs.OpRead, Path: ".f64", After: rng.Intn(reads), Err: faultfs.ErrIO},
		}
		for name, rule := range rules {
			t.Run(fmt.Sprintf("seed%d/%s/after%d", seed, name, rule.After), func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil, rule)
				env := Env{Reg: core.Builtins(), WS: mat.NewWorkspace(), FS: inj, SpoolDir: dir}
				plan, err := Compile(env.Reg, mustExpand(t, spec, 0))
				if err != nil {
					t.Fatal(err)
				}
				src, err := dataset.OpenCSVChunks(path, 32)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				res, err := Execute(context.Background(), ExecConfig{Env: env, Digest: "d"}, plan, src, src.Names())
				if inj.Faults() < 1 {
					t.Fatalf("the schedule never fired; the test exercised nothing")
				}
				if err == nil {
					t.Fatalf("run succeeded (%d points) under a storage fault", len(res.Points))
				}
				var pe *ParamError
				var de *dataset.DataError
				if errors.As(err, &pe) || errors.As(err, &de) {
					t.Errorf("storage fault surfaced as a client error: %T %v", err, err)
				}
				if left := spoolFiles(t, dir); len(left) != 0 {
					t.Errorf("spool files left behind: %v", left)
				}
			})
		}
	}
}
