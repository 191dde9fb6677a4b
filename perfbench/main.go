// Command perfbench is randprivd's benchmark. It starts randprivd, built
// from the same checkout, as separate processes; drives one workload from
// one client over one keep-alive connection in a closed loop; checks every
// response against an in-process recomputation; and prints the metrics.
// With --trace 0 they are the end-to-end metrics of the timed window. With
// --trace 1 the same window runs, and then its first op is replayed
// in-process through the layers' exported functions with spans at each
// layer boundary, giving the per-layer metrics. The last line of standard
// output is one JSON object; README.md defines every metric.
//
//	bash perfbench/run.sh --workload assess-stream --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"randpriv/internal/mat"
)

const (
	// Three batches of setupBatchCycles start→ready cycles give setup_s
	// as their median: one cycle takes milliseconds and does not repeat.
	// The batches run at the start of the run, after the servers stop
	// and after the output check, so that a burst of host steal a few
	// seconds long slows at most one batch, not the median.
	setupBatchCycles = 15
	// setupGap idles the machine before each single-process cycle. A
	// start right after another reuses what the last one left warm and
	// takes one of two times about 1.8 ms apart, each lasting tens of
	// cycles, so medians of back-to-back cycles flip between them; after
	// an idle gap every start is a cold start, as a deployment's is, and
	// has one mode. A coordinator and worker started cold instead swing
	// with the host by up to 2x, so their cycles run back to back.
	setupGap = 100 * time.Millisecond
	// warmFor outlasts the slow first half second of compute in a fresh
	// process.
	warmFor    = 1500 * time.Millisecond
	warmMinOps = 3
	// ingestProbes cache-answered requests give server.ingest_s.
	ingestProbes = 9
	// replayReps replays run with spans on and as many with spans off,
	// alternating.
	replayReps = 7
	// maxFailStreak ends a window early: the servers are gone.
	maxFailStreak = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "assess-stream, assess-memory or sweep-cluster")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: replay in-process with spans and print the per-layer metrics")
	bin := fs.String("randprivd", filepath.Join(".bench_build", "randprivd"), "randprivd binary built from this checkout")
	work := fs.String("workdir", ".bench_build", "directory for per-run state, logs and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopLive()
		os.Exit(130)
	}()
	os.Exit(run(w, *seed, *seconds, *trace == 1, *bin, *work))
}

func run(w *workload, seed int64, seconds int, trace bool, bin, work string) int {
	b := &bench{w: w, seed: seed, window: time.Duration(seconds) * time.Second, trace: trace}
	var err error
	if b.bin, err = filepath.Abs(bin); err == nil {
		b.work, err = filepath.Abs(work)
	}
	if err == nil {
		err = os.MkdirAll(b.work, 0o755)
	}
	if err == nil {
		b.dir, err = os.MkdirTemp(b.work, "run-"+w.name+"-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := b.run()
	stopLive()
	if err == nil {
		err = os.RemoveAll(b.dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v (state kept in %s)\n", w.name, seed, err, b.dir)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	trace  bool
	bin    string
	work   string
	dir    string // this run's state; removed after a clean run
}

// note prints one line of the human-readable report.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func (b *bench) run() (*result, error) {
	w := b.w
	in, err := makeInputs(w, b.seed, filepath.Join(b.dir, "upload.csv"))
	if err != nil {
		return nil, err
	}
	note("%s seed %d: upload %dx%d = %d bytes, chunk %d, dataset %s", w.name, b.seed, w.rows, w.cols, len(in.upload), w.chunk, in.digest[:12])
	if in.large != nil {
		note("untimed large streamed upload %dx%d = %d bytes", w.largeRows, w.cols, len(in.large))
	}
	res := &result{Metrics: map[string]metric{}}
	var setup setupCycles
	if err := b.setupBatch(&setup); err != nil {
		return nil, err
	}

	plan, err := planDeploy(filepath.Join(b.dir, "main"), w.cluster)
	if err != nil {
		return nil, err
	}
	tSetup := time.Now()
	d, err := plan.start(b.bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := d.waitReady(); err != nil {
		return nil, err
	}
	c := newClient(w, in, d.api.base)
	defer c.close()
	if err := b.warmUp(c, in); err != nil {
		return nil, err
	}
	tWarm := time.Now()
	st0, err := d.status(c.http)
	if err != nil {
		return nil, err
	}
	win, err := b.runWindow(c, d, in)
	if err != nil {
		return nil, err
	}
	st1, err := d.status(c.http)
	if err != nil {
		return nil, err
	}
	if w.cluster && (st0.Cluster == nil || st1.Cluster == nil) {
		return nil, fmt.Errorf("coordinator /v1/status has no cluster section")
	}
	var ok []opResult
	for _, op := range win.ops {
		if op.err == nil {
			ok = append(ok, op)
		}
	}
	var ingest []float64
	if b.trace && len(ok) > 0 {
		for i := 0; i < ingestProbes; i++ {
			lat, err := c.ingestProbe(ok[len(ok)-1])
			if err != nil {
				return nil, err
			}
			ingest = append(ingest, lat.Seconds())
		}
	}
	peak, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.stop()
	tStop := time.Now()
	if err := b.setupBatch(&setup); err != nil {
		return nil, err
	}

	// Output check, untimed, with the servers stopped.
	tCheck := time.Now()
	want, err := expected(context.Background(), w, in, win.ops)
	if err != nil {
		return nil, err
	}
	tChecked := time.Now()
	if err := b.setupBatch(&setup); err != nil {
		return nil, err
	}
	note("phases: start and warm-up %.1f s, window and probes %.1f s, output check %.1f s, setup cycles %.1f s",
		tWarm.Sub(tSetup).Seconds(), tStop.Sub(tWarm).Seconds(), tChecked.Sub(tCheck).Seconds(), setup.spent.Seconds())
	if !b.trace {
		res.Metrics["setup_s"] = metric{median(setup.times), "s"}
		note("setup_s %.6f (median of %d start-to-ready cycles on fresh state dirs, batch medians %s)",
			median(setup.times), len(setup.times), setup.batchMedians())
	}
	res.Attempted = len(win.ops)
	ok = ok[:0]
	for i := range win.ops {
		op := &win.ops[i]
		if op.err == nil && !bytes.Equal(op.body, want[i]) {
			op.err = fmt.Errorf("response differs from the in-process recomputation (%d vs %d bytes)", len(op.body), len(want[i]))
		}
		if op.err != nil {
			res.Failed++
			note("FAILED op %d (seeds %v): %v", i, op.seeds, op.err)
			continue
		}
		ok = append(ok, *op)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("no op succeeded in the window")
	}
	res.Correct = res.Failed == 0
	if w.cluster {
		if err := delegated(st0, st1, len(win.ops)); err != nil {
			res.Correct = false
			note("FAILED: %v", err)
		}
	}

	lat := make([]float64, len(ok))
	for i, op := range ok {
		lat[i] = op.latency.Seconds()
	}
	p50 := median(lat)
	tail, beyond := percentile(lat, w.tailPct)
	cpu := win.cpu / float64(len(ok))
	e2e := map[string]metric{
		"latency_p50_s":  {p50, "s"},
		"latency_tail_s": {tail, "s"},
		"ops_per_s":      {float64(len(ok)) / win.wall.Seconds(), "1/s"},
		"cpu_s_per_op":   {cpu, "s"},
		"peak_rss_mb":    {peak, "MiB"},
	}
	note("window %.3f s: %d ops attempted, %d failed", win.wall.Seconds(), res.Attempted, res.Failed)
	note("latency_tail_s is p%g of %d samples (%d beyond it)", w.tailPct, len(lat), beyond)
	if beyond < 10 {
		note("WARNING: fewer than ten samples beyond p%g", w.tailPct)
	}
	for _, k := range sortedKeys(e2e) {
		note("%s %.6g %s", k, e2e[k].Value, e2e[k].Unit)
	}
	note("host over the window: steal %d and iowait %d of %d jiffies; server CPU/wall %.3f",
		win.hostTicks.steal, win.hostTicks.iowait, win.hostTicks.total, win.cpu/win.wall.Seconds())

	if !b.trace {
		for k, v := range e2e {
			res.Metrics[k] = v
		}
		return res, nil
	}
	layers, correct, err := b.perLayer(in, ok, p50, ingest, st0, st1)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && correct
	res.Metrics = layers
	return res, nil
}

// setupCycles collects the start→ready times behind setup_s.
type setupCycles struct {
	times []float64
	spent time.Duration // wall time of the batches, stops included
}

func (s *setupCycles) batchMedians() string {
	var meds []string
	for i := 0; i+setupBatchCycles <= len(s.times); i += setupBatchCycles {
		meds = append(meds, fmt.Sprintf("%.6f", median(s.times[i:i+setupBatchCycles])))
	}
	return strings.Join(meds, " ")
}

// setupBatch runs one batch of start→ready cycles of the workload's
// server processes, each against fresh state dirs. Traced runs report
// no setup_s and skip it.
func (b *bench) setupBatch(s *setupCycles) error {
	if b.trace {
		return nil
	}
	start := time.Now()
	defer func() { s.spent += time.Since(start) }()
	gap := setupGap
	if b.w.cluster {
		gap = 0
	}
	for i := 0; i < setupBatchCycles; i++ {
		time.Sleep(gap)
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", len(s.times)))
		plan, err := planDeploy(dir, b.w.cluster)
		if err != nil {
			return err
		}
		t0 := time.Now()
		d, err := plan.start(b.bin)
		if err != nil {
			return err
		}
		err = d.waitReady()
		dt := time.Since(t0)
		d.stop()
		if err != nil {
			return err
		}
		s.times = append(s.times, dt.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// delegated checks that every sweep op of a window ran on the worker
// process. The coordinator falls back to a local serial run when
// delegation fails, with identical bytes, so the output check cannot see
// it: the sweepgroup tasks done over the window must be groupsPerOp per
// op, and the circuit breaker must never have tripped.
func delegated(st0, st1 serverStatus, ops int) error {
	done := st1.Cluster.TasksByKind["sweepgroup"].Done - st0.Cluster.TasksByKind["sweepgroup"].Done
	if done != groupsPerOp*ops {
		return fmt.Errorf("%d sweepgroup tasks done for %d ops, want %d each: an op ran without the worker", done, ops, groupsPerOp)
	}
	if trips := st1.Cluster.BreakerTrips; trips != 0 {
		return fmt.Errorf("cluster circuit breaker tripped %d times", trips)
	}
	return nil
}

// warmUp sends the untimed large upload, then ops until warmFor has
// passed. Every warm-up op computes (its seeds are disjoint from the
// timed ones), so nothing the window asks for is cached.
func (b *bench) warmUp(c *client, in *inputs) error {
	if in.large != nil {
		if _, _, _, err := c.assess(c.assessURL(in.opSeeds(phaseLarge, 0)[0]), in.large); err != nil {
			return fmt.Errorf("large upload: %w", err)
		}
	}
	start := time.Now()
	for i := 0; i < warmMinOps || time.Since(start) < warmFor; i++ {
		if r := c.op(in.opSeeds(phaseWarm, i)); r.err != nil {
			return fmt.Errorf("warm-up op: %w", r.err)
		}
	}
	return nil
}

type window struct {
	ops       []opResult
	wall      time.Duration
	cpu       float64 // server CPU seconds over the window
	hostTicks hostTicks
}

func (b *bench) runWindow(c *client, d *deployment, in *inputs) (*window, error) {
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	h0, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	win := &window{}
	start := time.Now()
	deadline := start.Add(b.window)
	streak := 0
	for i := 0; time.Now().Before(deadline) && i < maxOpsPerRun && streak < maxFailStreak; i++ {
		op := c.op(in.opSeeds(phaseTimed, i))
		win.ops = append(win.ops, op)
		if op.err != nil {
			streak++
		} else {
			streak = 0
		}
	}
	win.wall = time.Since(start)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	h1, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	win.hostTicks = hostTicks{iowait: h1.iowait - h0.iowait, steal: h1.steal - h0.steal, total: h1.total - h0.total}
	return win, nil
}

// perLayer replays the window's first op in-process, alternating spans
// off and on, and derives the per-layer metrics. correct is false when a
// replay's bytes differ from the HTTP response or a count moves.
func (b *bench) perLayer(in *inputs, ok []opResult, p50 float64, ingest []float64, st0, st1 serverStatus) (map[string]metric, bool, error) {
	rec := newRecorder()
	reg, err := tracedRegistry(rec)
	if err != nil {
		return nil, false, err
	}
	rp := &replayer{w: b.w, in: in, rec: rec, reg: reg, ws: mat.NewWorkspace(), dir: filepath.Join(b.dir, "replay")}
	if err := os.MkdirAll(rp.dir, 0o755); err != nil {
		return nil, false, err
	}
	// The first op's inputs depend on the seed alone; the last op's would
	// depend on how many ops the window fitted.
	op := ok[0]
	correct := true
	samples := map[string][]float64{}
	var onWall, offWall, covered, taskCompute []float64
	var counts []decodeCount
	for i := 0; i < 2*replayReps; i++ {
		rec.on = i%2 == 1
		t0 := time.Now()
		body, err := rp.replay(context.Background(), i, op)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, false, fmt.Errorf("replay: %w", err)
		}
		if !bytes.Equal(body, op.body) {
			correct = false
			note("FAILED replay %d: %d bytes differ from the %d-byte HTTP response", i, len(body), len(op.body))
		}
		if !rec.on {
			offWall = append(offWall, wall)
			continue
		}
		onWall = append(onWall, wall)
		counts = append(counts, rp.count)
		self, total := rec.times(i)
		for k, v := range replayLayers(self, rp.count, rp.tasks) {
			samples[k] = append(samples[k], v)
		}
		// Summed layer time is everything under the op's root span.
		covered = append(covered, (total["op"] - self["op"]).Seconds())
		taskCompute = append(taskCompute, total["sweep.task"].Seconds())
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			correct = false
			note("FAILED: decode counts moved between replays: %+v vs %+v", c, counts[0])
		}
	}

	m := map[string]metric{}
	for k, v := range samples {
		m[k] = metric{median(v), layerUnits[k]}
	}
	layerTime := median(covered)
	m["replay.coverage"] = metric{layerTime / p50, "ratio"}
	m["server.uncovered_s"] = metric{p50 - layerTime, "s"}
	m["replay.overhead"] = metric{median(onWall)/median(offWall) - 1, "ratio"}
	m["server.ingest_s"] = metric{median(ingest), "s"}

	var jt [6][]float64
	for _, op := range ok {
		for i, d := range []time.Duration{op.job.submit, op.job.queueWait, op.job.run, op.job.pollLag, op.job.result, op.job.delete} {
			jt[i] = append(jt[i], d.Seconds())
		}
	}
	for i, k := range []string{"jobs.submit_s", "jobs.queue_wait_s", "jobs.run_s", "jobs.poll_lag_s", "jobs.result_s", "jobs.delete_s"} {
		m[k] = metric{median(jt[i]), "s"} // 0 for sync ops, which have no job
	}
	m["cluster.await_idle_s"] = metric{0, "s"}
	m["cluster.tasks"] = metric{0, "count"}
	m["cluster.breaker_trips"] = metric{0, "count"}
	if b.w.cluster {
		done := st1.Cluster.TasksByKind["sweepgroup"].Done - st0.Cluster.TasksByKind["sweepgroup"].Done
		m["cluster.await_idle_s"] = metric{m["jobs.run_s"].Value - median(taskCompute), "s"}
		m["cluster.tasks"] = metric{float64(done) / float64(len(ok)), "count"}
		m["cluster.breaker_trips"] = metric{float64(st1.Cluster.BreakerTrips), "count"}
	}

	path := filepath.Join(b.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, false, err
	}
	if err := rec.write(path); err != nil {
		return nil, false, err
	}
	note("replayed the first op %d times with spans on and %d off; spans in %s", replayReps, replayReps, path)
	note("coverage %.3f (replay layer time %.6f s of untraced latency_p50_s %.6f s); tracing overhead %+.4f",
		m["replay.coverage"].Value, layerTime, p50, m["replay.overhead"].Value)
	note("counts per op: %d CSV decodes, %.4f MiB decoded, %g sweepgroup tasks",
		counts[0].passes, float64(counts[0].bytes)/(1<<20), m["cluster.tasks"].Value)
	for _, k := range sortedKeys(m) {
		note("%s %.6g %s", k, m[k].Value, m[k].Unit)
	}
	return m, correct, nil
}

// layerUnits lists every per-layer metric the replay yields, with its
// unit. Metrics of layers a workload does not cross read 0.
var layerUnits = map[string]string{
	"dataset.decode_s":      "s",
	"dataset.decode_passes": "count",
	"dataset.decode_mb":     "MiB",
	"dataset.encode_s":      "s",
	"stream.validate_s":     "s",
	"stream.sketch_s":       "s",
	"stream.collect_s":      "s",
	"randomize.perturb_s":   "s",
	"core.ndr_s":            "s",
	"recon.pcadr_s":         "s",
	"recon.bedr_s":          "s",
	"recon.sf_s":            "s",
	"recon.udr_s":           "s",
	"sweep.compile_s":       "s",
	"sweep.scan_s":          "s",
	"sweep.group_s":         "s",
	"sweep.marshal_s":       "s",
	"cluster.put_s":         "s",
	"cluster.enqueue_s":     "s",
	"cluster.claim_s":       "s",
	"cluster.complete_s":    "s",
	"cluster.cache_put_s":   "s",
}

// replayLayers turns one traced replay's span self times into layer
// metrics: seconds of self time per layer (per task for the cluster
// store calls) and the decode counts.
func replayLayers(self map[string]time.Duration, cnt decodeCount, tasks int) map[string]float64 {
	v := map[string]float64{}
	for k, unit := range layerUnits {
		if unit == "s" {
			v[k] = self[strings.TrimSuffix(k, "_s")].Seconds()
		}
	}
	perTask := func(name string) float64 {
		if tasks == 0 {
			return 0
		}
		return self[name].Seconds() / float64(tasks)
	}
	v["cluster.enqueue_s"] = perTask("cluster.enqueue")
	v["cluster.claim_s"] = perTask("cluster.claim")
	v["cluster.complete_s"] = perTask("cluster.complete")
	v["cluster.cache_put_s"] = perTask("cluster.cache_put")
	v["dataset.decode_passes"] = float64(cnt.passes)
	v["dataset.decode_mb"] = float64(cnt.bytes) / (1 << 20)
	return v
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile and how many samples
// lie beyond it.
func percentile(xs []float64, p float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}
