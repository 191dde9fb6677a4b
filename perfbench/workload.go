package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"os"
	"strconv"
	"sync"
	"time"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/sweep"
	"randpriv/internal/synth"
)

// workload is one traffic shape. Each loads some layers heavily and
// others hardly at all; README.md gives the reasons.
type workload struct {
	name       string
	rows, cols int // timed upload shape
	chunk      int // ?chunk= / spec chunk
	stream     bool
	// cluster runs a coordinator with no claim loops beside one worker
	// process, and each op is an async sweep job.
	cluster bool
	// largeRows, when set, is the row count of one untimed streamed
	// upload sent before the window; it sets the server's peak RSS.
	largeRows int
	// tailPct is the percentile reported as latency_tail_s, chosen so a
	// window holds at least ten samples beyond it.
	tailPct float64
}

var workloads = map[string]*workload{
	"assess-stream": {name: "assess-stream", rows: 2000, cols: 20, chunk: 256, stream: true, largeRows: 20000, tailPct: 90},
	"assess-memory": {name: "assess-memory", rows: 300, cols: 10, chunk: 256, tailPct: 90},
	"sweep-cluster": {name: "sweep-cluster", rows: 1000, cols: 20, chunk: 256, stream: true, cluster: true, tailPct: 80},
}

// sweepSigmas × the four per-op seeds make each sweep op's 16 points,
// one perturbation group (so one sweepgroup task) each.
var (
	sweepSigmas = []float64{2, 5, 10, 20}
	groupsPerOp = len(sweepSigmas) * seedsPerOp
)

const (
	sigma        = 5 // the σ of every assess op
	seedsPerOp   = 4 // seeds per sweep op; assess ops use the first
	jobPoll      = 5 * time.Millisecond
	opTimeout    = 60 * time.Second
	phaseWarm    = 1 // op-seed phase of warm-up ops
	phaseTimed   = 2 // op-seed phase of timed ops
	phaseLarge   = 3 // op-seed phase of the large upload
	phaseStride  = 10_000_000
	maxOpsPerRun = phaseStride / seedsPerOp
)

// genCSV draws rows×cols synthetic records with synth (the CLI gen
// defaults: three principal components, eigenvalues 400 and 4) and
// encodes them as the CSV a client would upload.
func genCSV(rows, cols int, seed int64) ([]byte, error) {
	vals, err := synth.Spectrum{M: cols, P: 3, Principal: 400, Tail: 4}.Values()
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(rows, vals, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	tbl, err := dataset.New(nil, ds.X)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// splitmix derives independent values from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func derive(seed int64, salt uint64) int64 {
	return int64(splitmix(uint64(seed)^splitmix(salt)) >> 2)
}

// inputs are a run's generated data, all a function of the seed.
type inputs struct {
	upload     []byte
	uploadPath string // the upload on disk, for the in-process check and replay
	digest     string // hex SHA-256 of upload, as the server computes it
	large      []byte // optional untimed large upload
	seedBase   int64  // op seeds are seedBase + phase·phaseStride + op·seedsPerOp + k
}

func makeInputs(w *workload, seed int64, path string) (*inputs, error) {
	in := &inputs{uploadPath: path, seedBase: 1 + derive(seed, 1)%1_000_000_000}
	var err error
	if in.upload, err = genCSV(w.rows, w.cols, derive(seed, 2)); err != nil {
		return nil, err
	}
	if w.largeRows > 0 {
		if in.large, err = genCSV(w.largeRows, w.cols, derive(seed, 3)); err != nil {
			return nil, err
		}
	}
	sum := sha256.Sum256(in.upload)
	in.digest = hex.EncodeToString(sum[:])
	return in, os.WriteFile(path, in.upload, 0o644)
}

func (in *inputs) opSeeds(phase, op int) []int64 {
	s := make([]int64, seedsPerOp)
	for k := range s {
		s[k] = in.seedBase + int64(phase)*phaseStride + int64(op*seedsPerOp+k)
	}
	return s
}

// jobTimes are one sweep job's phases as the HTTP surface shows them.
type jobTimes struct {
	submit, queueWait, run, pollLag, result, delete time.Duration
}

// opResult is one op: what was asked, how long it took from request
// send to the last response byte, and the bytes it returned.
type opResult struct {
	seeds   []int64
	latency time.Duration
	body    []byte
	err     error
	job     jobTimes
}

// client drives one workload over one keep-alive connection.
type client struct {
	w    *workload
	in   *inputs
	base string
	http *http.Client
}

func newClient(w *workload, in *inputs, base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{w: w, in: in, base: base, http: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

func (c *client) do(req *http.Request, want int) ([]byte, *http.Response, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: %s: %.200s", req.Method, req.URL.Path, resp.Status, body)
	}
	return body, resp, nil
}

func (c *client) assessURL(seed int64) string {
	u := fmt.Sprintf("%s/v1/assess?sigma=%d&seed=%d&chunk=%d", c.base, sigma, seed, c.w.chunk)
	if c.w.stream {
		u += "&stream=1"
	}
	return u
}

// assess sends one sync assessment and reports the X-Cache header.
func (c *client) assess(url string, upload []byte) ([]byte, string, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(upload))
	if err != nil {
		return nil, "", 0, err
	}
	req.Header.Set("Content-Type", "text/csv")
	t0 := time.Now()
	body, resp, err := c.do(req, http.StatusOK)
	lat := time.Since(t0)
	if err != nil {
		return nil, "", lat, err
	}
	return body, resp.Header.Get("X-Cache"), lat, nil
}

// op runs one op of the workload with the given seeds.
func (c *client) op(seeds []int64) opResult {
	if c.w.cluster {
		return c.sweepOp(seeds)
	}
	r := opResult{seeds: seeds[:1]}
	var cache string
	r.body, cache, r.latency, r.err = c.assess(c.assessURL(seeds[0]), c.in.upload)
	if r.err == nil && cache != "miss" {
		r.err = fmt.Errorf("op with seed %d answered from cache (%q): it computed nothing", seeds[0], cache)
	}
	return r
}

func sweepSpec(w *workload, seeds []int64) ([]byte, error) {
	return json.Marshal(sweep.Spec{
		Defenses: []sweep.DefenseAxis{{Scheme: "additive", Sigmas: sweepSigmas}},
		Seeds:    seeds,
		Stream:   w.stream,
		Chunk:    w.chunk,
	})
}

func multipartBody(spec, data []byte) (*bytes.Buffer, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	part := func(name, filename, ctype string, b []byte) error {
		h := textproto.MIMEHeader{}
		disp := fmt.Sprintf(`form-data; name=%q`, name)
		if filename != "" {
			disp += fmt.Sprintf(`; filename=%q`, filename)
		}
		h.Set("Content-Disposition", disp)
		h.Set("Content-Type", ctype)
		pw, err := mw.CreatePart(h)
		if err != nil {
			return err
		}
		_, err = pw.Write(b)
		return err
	}
	if err := part("spec", "", "application/json", spec); err != nil {
		return nil, "", err
	}
	if err := part("data", "data.csv", "text/csv", data); err != nil {
		return nil, "", err
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return &buf, mw.FormDataContentType(), nil
}

type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// sweepOp is submit → poll GET /v1/jobs/{id} → GET …/result → DELETE.
func (c *client) sweepOp(seeds []int64) opResult {
	r := opResult{seeds: seeds}
	spec, err := sweepSpec(c.w, seeds)
	if err != nil {
		r.err = err
		return r
	}
	body, ctype, err := multipartBody(spec, c.in.upload)
	if err != nil {
		r.err = err
		return r
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", body)
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", ctype)
	t0 := time.Now()
	r.err = c.runJob(req, &r)
	r.latency = time.Since(t0)
	if r.err != nil {
		r.body = nil
	}
	return r
}

func (c *client) runJob(submit *http.Request, r *opResult) error {
	t := time.Now()
	b, _, err := c.do(submit, http.StatusAccepted)
	if err != nil {
		return err
	}
	r.job.submit = time.Since(t)
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("decode job: %w", err)
	}
	item := c.base + "/v1/jobs/" + st.ID
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		if time.Since(t) > opTimeout {
			return fmt.Errorf("job %s still %s after %v", st.ID, st.State, opTimeout)
		}
		time.Sleep(jobPoll)
		req, _ := http.NewRequest(http.MethodGet, item, nil)
		if b, _, err = c.do(req, http.StatusOK); err != nil {
			return err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return fmt.Errorf("decode job: %w", err)
		}
	}
	seen := time.Now()
	if st.Started == nil || st.Finished == nil {
		return fmt.Errorf("job %s done without start/finish times", st.ID)
	}
	r.job.queueWait = st.Started.Sub(st.Created)
	r.job.run = st.Finished.Sub(*st.Started)
	r.job.pollLag = seen.Sub(*st.Finished)

	t = time.Now()
	req, _ := http.NewRequest(http.MethodGet, item+"/result", nil)
	if r.body, _, err = c.do(req, http.StatusOK); err != nil {
		return err
	}
	r.job.result = time.Since(t)

	t = time.Now()
	req, _ = http.NewRequest(http.MethodDelete, item, nil)
	if _, _, err = c.do(req, http.StatusNoContent); err != nil {
		return err
	}
	r.job.delete = time.Since(t)
	return nil
}

// ingestProbe repeats a request the server's LRU already holds — the
// last timed op's, or for sweeps one of its points as a sync stream
// assessment — so the round trip is spool, SHA-256 and lookup only.
func (c *client) ingestProbe(last opResult) (time.Duration, error) {
	url := c.assessURL(last.seeds[0])
	if c.w.cluster {
		url = fmt.Sprintf("%s/v1/assess?sigma=%s&seed=%d&chunk=%d&stream=1", c.base,
			strconv.FormatFloat(sweepSigmas[0], 'g', -1, 64), last.seeds[0], c.w.chunk)
	}
	_, cache, lat, err := c.assess(url, c.in.upload)
	if err == nil && cache != "hit" {
		err = fmt.Errorf("ingest probe missed the cache (%q)", cache)
	}
	return lat, err
}

// assessParams is a sync assess op as the server decodes it: query
// values plus the server defaults for everything the query leaves out.
func assessParams(w *workload, seed int64) sweep.Params {
	return sweep.Params{
		Sigma: sigma, Seed: seed, Scheme: "additive", Chunk: w.chunk, Stream: w.stream,
		Epsilon: sweep.DefaultEpsilon, Delta: sweep.DefaultDelta, Sensitivity: sweep.DefaultSensitivity,
	}
}

// expected recomputes, in-process and untimed, the bytes every op should
// have returned. Assess ops are the points of one sweep.Execute plan
// (sweep points are byte-identical to /v1/assess); each sweep op's spec
// runs single-process (the delegated path is byte-identical to it).
func expected(ctx context.Context, w *workload, in *inputs, ops []opResult) ([][]byte, error) {
	reg := core.Builtins()
	want := make([][]byte, len(ops))
	if !w.cluster {
		grid := make([]sweep.Params, len(ops))
		for i, op := range ops {
			grid[i] = assessParams(w, op.seeds[0])
		}
		res, err := executePlan(ctx, reg, mat.NewWorkspace(), grid, in, w.chunk)
		if err != nil {
			return nil, err
		}
		for _, pt := range res.Points {
			if pt.Error != "" {
				return nil, fmt.Errorf("check: point %v: %s", pt.Params, pt.Error)
			}
			for _, gi := range pt.GridIndices {
				want[gi] = append(append([]byte(nil), pt.Report...), '\n')
			}
		}
		return want, nil
	}
	// Sweep ops are independent plans; two goroutines keep the check's
	// wall time down on a two-core host.
	errs := make([]error, len(ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := mat.NewWorkspace()
			for i := range next {
				want[i], errs[i] = sweepResult(ctx, reg, ws, w, in, ops[i].seeds)
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	return want, errors.Join(errs...)
}

func executePlan(ctx context.Context, reg *core.Registry, ws *mat.Workspace, grid []sweep.Params, in *inputs, chunk int) (*sweep.Result, error) {
	plan, err := sweep.Compile(reg, grid)
	if err != nil {
		return nil, err
	}
	src, err := dataset.OpenCSVChunks(in.uploadPath, chunk)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return sweep.Execute(ctx, sweep.ExecConfig{Env: sweep.Env{Reg: reg, WS: ws}, Digest: in.digest}, plan, src, src.Names())
}

func sweepResult(ctx context.Context, reg *core.Registry, ws *mat.Workspace, w *workload, in *inputs, seeds []int64) ([]byte, error) {
	specBytes, err := sweepSpec(w, seeds)
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpec(specBytes)
	if err != nil {
		return nil, err
	}
	grid, err := spec.Expand(reg, w.chunk, 0)
	if err != nil {
		return nil, err
	}
	res, err := executePlan(ctx, reg, ws, grid, in, w.chunk)
	if err != nil {
		return nil, err
	}
	return sweep.MarshalResult(res)
}
