package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"randpriv/internal/core"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/synth"
)

func testEnv() Env { return Env{Reg: core.Builtins(), WS: mat.NewWorkspace()} }

// testData builds a deterministic correlated matrix plus column names.
func testData(t testing.TB, n, m, p int, seed int64) (*mat.Dense, []string) {
	t.Helper()
	spec := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	ds, err := synth.Generate(n, vals, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	names := make([]string, m)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	return ds.X, names
}

func mustExpand(t testing.TB, spec string, maxPoints int) []Params {
	t.Helper()
	s, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	grid, err := s.Expand(core.Builtins(), 64, maxPoints)
	if err != nil {
		t.Fatalf("expand %s: %v", spec, err)
	}
	return grid
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not json":      "sigma=5",
		"unknown field": `{"defenses":[{"scheme":"additive"}],"sigma":5}`,
		"unknown axis":  `{"defenses":[{"scheme":"additive","sigma":[5]}]}`,
		"trailing data": `{"defenses":[{"scheme":"additive"}]}{}`,
	} {
		_, err := ParseSpec([]byte(in))
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *ParamError", name, err)
		}
	}
}

func TestExpandValidation(t *testing.T) {
	reg := core.Builtins()
	for name, spec := range map[string]string{
		"no defenses":         `{}`,
		"unknown scheme":      `{"defenses":[{"scheme":"banana"}]}`,
		"zero sigma":          `{"defenses":[{"scheme":"additive","sigmas":[0]}]}`,
		"negative sigma":      `{"defenses":[{"scheme":"additive","sigmas":[-1]}]}`,
		"epsilons non-dp":     `{"defenses":[{"scheme":"additive","epsilons":[1]}]}`,
		"sigmas under dp":     `{"defenses":[{"scheme":"dp-laplace","sigmas":[5]}]}`,
		"deltas non-gaussian": `{"defenses":[{"scheme":"dp-laplace","deltas":[0.1]}]}`,
		"delta out of range":  `{"defenses":[{"scheme":"dp-gaussian","deltas":[1]}]}`,
		"chunk too large":     `{"defenses":[{"scheme":"additive"}],"chunk":99999999}`,
		"duplicate attack":    `{"defenses":[{"scheme":"additive"}],"attacks":["sf","sf"]}`,
		"unknown attack":      `{"defenses":[{"scheme":"additive"}],"attacks":["nope"]}`,
		"resident in stream":  `{"defenses":[{"scheme":"additive"}],"stream":true,"attacks":["sf"]}`,
		"utility in stream":   `{"defenses":[{"scheme":"additive"}],"stream":true,"utility":["kmeans"]}`,
		"utility under none":  `{"defenses":[{"scheme":"none"}],"utility":["kmeans"]}`,
		"k without kmeans":    `{"defenses":[{"scheme":"additive"}],"utility":["dtree"],"k":3}`,
	} {
		s, err := ParseSpec([]byte(spec))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, err = s.Expand(reg, 64, 0)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: Expand err = %v, want *ParamError", name, err)
		}
	}
}

func TestExpandDefaultsMatchStandaloneRequest(t *testing.T) {
	grid := mustExpand(t, `{"defenses":[{"scheme":"additive"}]}`, 0)
	if len(grid) != 1 {
		t.Fatalf("grid = %d points, want 1", len(grid))
	}
	p := grid[0]
	want := Params{
		Sigma: DefaultSigma, Seed: DefaultSeed, Scheme: "additive", Chunk: 64,
		Epsilon: DefaultEpsilon, Delta: DefaultDelta, Sensitivity: DefaultSensitivity,
	}
	if CacheKey(p, "d") != CacheKey(want, "d") {
		t.Errorf("defaulted point key\n %s\nwant\n %s", CacheKey(p, "d"), CacheKey(want, "d"))
	}
}

func TestExpandMaxPoints(t *testing.T) {
	const spec = `{"defenses":[{"scheme":"additive","sigmas":[1,2,3]}],"seeds":[1,2]}`
	if grid := mustExpand(t, spec, 6); len(grid) != 6 {
		t.Fatalf("grid = %d points, want 6", len(grid))
	}
	s, _ := ParseSpec([]byte(spec))
	_, err := s.Expand(core.Builtins(), 64, 5)
	var pe *ParamError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "exceeding the limit of 5") {
		t.Errorf("over-limit Expand err = %v, want *ParamError naming the limit", err)
	}
}

func TestCompileDedupCollapses(t *testing.T) {
	grid := mustExpand(t, `{"defenses":[{"scheme":"additive","sigmas":[5,5,3]}],"seeds":[1,1]}`, 0)
	if len(grid) != 6 {
		t.Fatalf("grid = %d points, want 6 before dedup", len(grid))
	}
	plan, err := Compile(core.Builtins(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 2 || plan.Collapsed != 4 {
		t.Errorf("points = %d collapsed = %d, want 2/4", len(plan.Points), plan.Collapsed)
	}
	// Every original grid position must be accounted for exactly once.
	seen := make(map[int]bool)
	for _, pt := range plan.Points {
		for _, gi := range pt.GridIndices {
			if seen[gi] {
				t.Errorf("grid index %d attributed twice", gi)
			}
			seen[gi] = true
		}
	}
	if len(seen) != 6 {
		t.Errorf("grid indices covered = %d, want 6", len(seen))
	}
}

// TestSweepPlanScanCount pins the plan-level pass accounting: an S-point
// grid plans shared scans, not S independent assessments.
func TestSweepPlanScanCount(t *testing.T) {
	reg := core.Builtins()

	// 4 streamed points (2 σ × 2 seeds, additive). Default streamed
	// battery is PCA-DR + BE-DR, 3 passes each, both sketch-shared.
	// Per point standalone: validate + perturb + 2 (NDR) + 2×3 = 10.
	// Planned: 1 validate, then per group (4 distinct perturbations):
	// perturb + 2 (NDR) + 1 shared sketch + 2×(3−1) battery = 8.
	grid := mustExpand(t, `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[1,2],"stream":true}`, 0)
	plan, err := Compile(reg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SequentialPasses != 40 {
		t.Errorf("sequential passes = %d, want 40", plan.SequentialPasses)
	}
	if plan.PlannedPasses != 33 {
		t.Errorf("planned passes = %d, want 33 (1 + 4×8)", plan.PlannedPasses)
	}
	if len(plan.Groups) != 4 {
		t.Errorf("groups = %d, want 4", len(plan.Groups))
	}

	// Single point: the plan must not cost more than the standalone
	// request it replaces (the sketch consolidation keeps it equal:
	// validate + perturb + NDR + sketch + 2×2 battery = 8 ≤ 10).
	single, err := Compile(reg, grid[:1])
	if err != nil {
		t.Fatal(err)
	}
	if single.PlannedPasses > PassesFor(reg, grid[0]) {
		t.Errorf("single-point plan = %d passes > standalone %d", single.PlannedPasses, PassesFor(reg, grid[0]))
	}

	// Memory-mode grid varying only the battery: one perturbation group,
	// so the whole grid is 1 validate + 1 perturb regardless of S.
	memGrid := []Params{}
	for _, attacks := range [][]string{{"sf"}, {"pcadr"}, {"bedr"}} {
		p := mustExpand(t, `{"defenses":[{"scheme":"additive"}]}`, 0)[0]
		p.Attacks = attacks
		memGrid = append(memGrid, p)
	}
	memPlan, err := Compile(reg, memGrid)
	if err != nil {
		t.Fatal(err)
	}
	if memPlan.PlannedPasses != 2 || len(memPlan.Groups) != 1 {
		t.Errorf("memory plan = %d passes, %d groups, want 2 passes in 1 group", memPlan.PlannedPasses, len(memPlan.Groups))
	}
	if memPlan.SequentialPasses != 12 {
		t.Errorf("memory sequential = %d, want 12 (3×4)", memPlan.SequentialPasses)
	}

	// A covariance-hungry defense adds exactly one original-sketch pass
	// for the whole plan, not one per point.
	covGrid := mustExpand(t, `{"defenses":[{"scheme":"correlated","sigmas":[3,5]}]}`, 0)
	covPlan, err := Compile(reg, covGrid)
	if err != nil {
		t.Fatal(err)
	}
	if !covPlan.NeedsOrigSketch {
		t.Error("correlated plan missing the original sketch")
	}
	if covPlan.PlannedPasses != 1+1+2 { // validate + orig sketch + 2 perturbations
		t.Errorf("correlated memory plan = %d passes, want 4", covPlan.PlannedPasses)
	}
}

// TestExecuteMeasuredEqualsPlanned holds the executor to the plan's pass
// promise: with a cold cache, the measured source resets equal
// PlannedPasses exactly.
func TestExecuteMeasuredEqualsPlanned(t *testing.T) {
	data, names := testData(t, 120, 4, 2, 7)
	for name, spec := range map[string]string{
		"stream":     `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[1,2],"chunk":32,"stream":true}`,
		"memory":     `{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"none"}],"chunk":32}`,
		"covariance": `{"defenses":[{"scheme":"correlated","sigmas":[4]}],"seeds":[1,2],"chunk":32,"stream":true}`,
		"dp":         `{"defenses":[{"scheme":"dp-laplace","epsilons":[0.5,1]}],"chunk":32}`,
	} {
		grid := mustExpand(t, spec, 0)
		plan, err := Compile(core.Builtins(), grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Execute(context.Background(), ExecConfig{Env: testEnv(), Digest: "d"},
			plan, stream.NewMatrixSource(data, 32), names)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		if res.MeasuredPasses != res.PlannedPasses {
			t.Errorf("%s: measured %d passes, planned %d", name, res.MeasuredPasses, res.PlannedPasses)
		}
		if res.Rows != 120 || res.Cols != 4 {
			t.Errorf("%s: rows/cols = %d/%d, want 120/4", name, res.Rows, res.Cols)
		}
		for i, pt := range res.Points {
			if pt.Error != "" || len(pt.Report) == 0 {
				t.Errorf("%s: point %d: error %q, report %d bytes", name, i, pt.Error, len(pt.Report))
			}
		}
	}
}

// TestSweepPointMatchesSinglePointPlan is the engine-level identity: a
// point evaluated inside a shared-scan grid must produce byte-identical
// report bytes to the same point compiled and executed alone.
func TestSweepPointMatchesSinglePointPlan(t *testing.T) {
	data, names := testData(t, 150, 4, 2, 11)
	env := testEnv()
	for name, spec := range map[string]string{
		"stream": `{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"seeds":[1,2],"chunk":32,"stream":true}`,
		"memory": `{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"dp-gaussian","epsilons":[1,2]}],"seeds":[1,2],"chunk":32,"utility":["kmeans","dtree"],"k":3}`,
	} {
		grid := mustExpand(t, spec, 0)
		plan, err := Compile(env.Reg, grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Execute(context.Background(), ExecConfig{Env: env, Digest: "d"},
			plan, stream.NewMatrixSource(data, 32), names)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		for i, pt := range res.Points {
			solo, err := Compile(env.Reg, []Params{pt.Params})
			if err != nil {
				t.Fatalf("%s: point %d: %v", name, i, err)
			}
			soloRes, err := Execute(context.Background(), ExecConfig{Env: env, Digest: "d"},
				solo, stream.NewMatrixSource(data, 32), names)
			if err != nil {
				t.Fatalf("%s: point %d solo: %v", name, i, err)
			}
			if !bytes.Equal(pt.Report, soloRes.Points[0].Report) {
				t.Errorf("%s: point %d report differs from its single-point plan:\ngrid: %s\nsolo: %s",
					name, i, pt.Report, soloRes.Points[0].Report)
			}
		}
	}
}

type mapCache map[string][]byte

func (c mapCache) Get(key string) ([]byte, bool) { b, ok := c[key]; return b, ok }
func (c mapCache) Add(key string, body []byte)   { c[key] = append([]byte(nil), body...) }

// TestExecuteCacheWarmth: a warm result cache skips compute passes but
// must not change a single response byte.
func TestExecuteCacheWarmth(t *testing.T) {
	data, names := testData(t, 100, 4, 2, 3)
	grid := mustExpand(t, `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[1,2],"chunk":32,"stream":true}`, 0)
	plan, err := Compile(core.Builtins(), grid)
	if err != nil {
		t.Fatal(err)
	}
	cache := mapCache{}
	run := func() *Result {
		res, err := Execute(context.Background(), ExecConfig{Env: testEnv(), Digest: "d", Cache: cache},
			plan, stream.NewMatrixSource(data, 32), names)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	warm := run()
	coldBody, _ := MarshalResult(cold)
	warmBody, _ := MarshalResult(warm)
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("cache warmth changed the result body:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if warm.MeasuredPasses != 1 { // only the validate+collect pass remains
		t.Errorf("warm run made %d passes, want 1", warm.MeasuredPasses)
	}
	for i, pt := range warm.Points {
		if !pt.Cached {
			t.Errorf("warm point %d not served from cache", i)
		}
	}
	// The cache keys are the server's assess keys: a standalone request
	// for the same point would be served by what the sweep stored.
	for _, pt := range cold.Points {
		if _, ok := cache[CacheKey(pt.Params, "d")]; !ok {
			t.Errorf("sweep did not populate the assess cache for %+v", pt.Params)
		}
	}
}

// TestExecuteRecordsPointRejections: a calibration the registry rejects
// fails its own point the way a standalone 400 would, without sinking
// the rest of the grid.
func TestExecuteRecordsPointRejections(t *testing.T) {
	data, names := testData(t, 80, 3, 1, 5)
	good := mustExpand(t, `{"defenses":[{"scheme":"additive"}],"chunk":32}`, 0)[0]
	bad := good
	bad.Scheme = "banana" // bypasses Expand: executor-level rejection
	plan, err := Compile(core.Builtins(), []Params{good})
	if err != nil {
		t.Fatal(err)
	}
	// Splice the bad point in as its own group (Compile validates, so
	// build the plan entry directly).
	plan.Points = append(plan.Points, Point{Params: bad, GridIndices: []int{1}})
	plan.Groups = append(plan.Groups, Group{Key: PerturbKey(bad), Points: []int{1}})
	res, err := Execute(context.Background(), ExecConfig{Env: testEnv(), Digest: "d"},
		plan, stream.NewMatrixSource(data, 32), names)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.Points[0].Error != "" || len(res.Points[0].Report) == 0 {
		t.Errorf("good point: error %q, report %d bytes", res.Points[0].Error, len(res.Points[0].Report))
	}
	if res.Points[1].Error == "" || len(res.Points[1].Report) != 0 {
		t.Errorf("bad point: error %q report %d bytes, want recorded rejection", res.Points[1].Error, len(res.Points[1].Report))
	}
}

// FuzzSweepSpec: no spec bytes may panic the parser/expander, and every
// accepted grid must satisfy the planner's invariants.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{"defenses":[{"scheme":"additive"}]}`,
		`{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[1,2],"stream":true}`,
		`{"defenses":[{"scheme":"correlated","sigmas":[4]},{"scheme":"none"}],"chunk":128}`,
		`{"defenses":[{"scheme":"dp-gaussian","epsilons":[0.5,1],"deltas":[1e-5],"sensitivities":[1,2]}]}`,
		`{"defenses":[{"scheme":"dp-laplace","epsilons":[1]}],"attacks":["sf","pcadr"]}`,
		`{"defenses":[{"scheme":"additive"}],"utility":["kmeans","nbayes","dtree"],"k":3}`,
		`{"defenses":[{"scheme":"additive","sigmas":[0]}]}`,
		`{"defenses":[{"scheme":"additive","sigmas":[1e308,1e308]}],"seeds":[-1,0,9223372036854775807]}`,
		`{"defenses":[]}`, `{}`, `[]`, `null`, `{"defenses":[{"scheme":""}]}`,
		`{"defenses":[{"scheme":"additive"}],"chunk":1048577}`,
		`{"defenses":[{"scheme":"additive"}],"attacks":["asr"],"stream":true}`,
	} {
		f.Add([]byte(seed))
	}
	reg := core.Builtins()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		const maxPoints = 64
		grid, err := s.Expand(reg, 4096, maxPoints)
		if err != nil {
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("Expand returned non-ParamError %v for %q", err, data)
			}
			return
		}
		if len(grid) == 0 || len(grid) > maxPoints {
			t.Fatalf("accepted grid of %d points (cap %d) from %q", len(grid), maxPoints, data)
		}
		for _, p := range grid {
			if !(p.Sigma > 0) || p.Chunk < 1 || p.Chunk > MaxChunkRows {
				t.Fatalf("accepted invalid point %+v from %q", p, data)
			}
			if _, err := reg.LookupDefense(p.Scheme); err != nil {
				t.Fatalf("accepted unknown scheme %q from %q", p.Scheme, data)
			}
		}
		plan, err := Compile(reg, grid)
		if err != nil {
			t.Fatalf("Compile rejected Expand output: %v (spec %q)", err, data)
		}
		if plan.PlannedPasses > plan.SequentialPasses {
			t.Fatalf("plan costs more than sequential: %d > %d (spec %q)",
				plan.PlannedPasses, plan.SequentialPasses, data)
		}
		if got := len(plan.Points) + plan.Collapsed; got != len(grid) {
			t.Fatalf("points(%d) + collapsed(%d) != grid(%d) (spec %q)",
				len(plan.Points), plan.Collapsed, len(grid), data)
		}
		// Round-trip: a point's JSON identity is stable.
		for _, pt := range plan.Points {
			b, err := json.Marshal(pt.Params)
			if err != nil {
				t.Fatalf("marshal point: %v", err)
			}
			var back Params
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("unmarshal point: %v", err)
			}
			if CacheKey(back, "d") != CacheKey(pt.Params, "d") {
				t.Fatalf("point identity not JSON-stable: %s vs %s", CacheKey(back, "d"), CacheKey(pt.Params, "d"))
			}
		}
	})
}

// TestMarshalReportRejectsNonFinite: JSON cannot carry NaN or ±Inf, so
// a report holding one is a parameter rejection naming the first such
// field in body order — never an encoder error that would surface as a
// 500.
func TestMarshalReportRejectsNonFinite(t *testing.T) {
	p := Params{Sigma: 1e307, Seed: 1, Scheme: "additive", Chunk: 8, Stream: true}
	for want, rep := range map[string]*core.PrivacyReport{
		"ndr_baseline_rmse is +Inf": {NDRBaseline: math.Inf(1)},
		"results[PCA-DR].column_rmse[1] is NaN": {NDRBaseline: 1, Results: []core.AttackResult{
			{Attack: "PCA-DR", RMSE: 1, ColumnRMSE: []float64{1, math.NaN()}},
		}},
	} {
		_, err := MarshalReport(rep, nil, p, 10, 2, "digest")
		var pe *ParamError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
			t.Errorf("MarshalReport = %v, want a *ParamError naming %q", err, want)
		}
	}
	if _, err := MarshalReport(&core.PrivacyReport{NDRBaseline: 1}, nil, p, 10, 2, "digest"); err != nil {
		t.Fatalf("finite report rejected: %v", err)
	}
}
