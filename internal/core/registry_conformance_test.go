package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/stream"
)

// This file is the registry-wide conformance harness: every operator in
// Builtins() — current and future — is pulled through the same property
// checks by iterating the registry, so registering a new attack, defense
// or utility probe automatically subjects it to the contracts the
// service layer depends on:
//
//   - seed determinism: equal seeds produce byte-identical output, at
//     any concurrency (the /v1/assess cache and the job byte-equality
//     contract both assume it);
//   - stream/memory agreement ≤ 1e-9 wherever both paths exist;
//   - cancellation: a canceled context fails the run instead of
//     yielding a partial result;
//   - boundary validation: invalid parameters are rejected at Build (or
//     first use), never absorbed, and an attack fails on a NaN or ±Inf
//     in the disguised data, on every path it has;
//   - metadata completeness: capabilities must match the code shape the
//     dispatcher routes on.

// conformanceFixture is the shared (original, disguised) pair: a seeded
// synthetic data set under additive noise matching noiseSigma2.
const noiseSigma2 = 25.0

func conformanceFixture(t *testing.T) (orig, disg *mat.Dense) {
	t.Helper()
	ds := makeData(t, 31)
	pert, err := randomize.NewAdditiveGaussian(math.Sqrt(noiseSigma2)).
		Perturb(ds.X, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatalf("perturb fixture: %v", err)
	}
	return ds.X, pert.Y
}

func maxAbsDiff(t *testing.T, a, b *mat.Dense) float64 {
	t.Helper()
	an, am := a.Dims()
	bn, bm := b.Dims()
	if an != bn || am != bm {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", an, am, bn, bm)
	}
	var max float64
	for i := 0; i < an; i++ {
		for j := 0; j < am; j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}

func dataCovOf(t *testing.T, x *mat.Dense) func() (*mat.Dense, error) {
	t.Helper()
	return func() (*mat.Dense, error) {
		mo, err := stream.Accumulate(stream.NewMatrixSource(x, 128), 1)
		if err != nil {
			return nil, err
		}
		return mo.Covariance(), nil
	}
}

func attackFixtureCtx() AttackContext {
	return AttackContext{Noise: NoiseModel{Sigma2: noiseSigma2}}
}

func canceledSource(x *mat.Dense) stream.Source {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return stream.ContextSource{Ctx: ctx, Src: stream.NewMatrixSource(x, 64)}
}

// TestRegistryMetadata checks every registered spec's self-description
// against the code shape the dispatcher routes on.
func TestRegistryMetadata(t *testing.T) {
	r := Builtins()
	for _, mode := range r.AttackModes() {
		spec, err := r.LookupAttack(mode)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Attack == "" || spec.Description == "" {
			t.Errorf("attack %q: missing display name or description", mode)
		}
		if spec.Caps.Streaming != (spec.BuildStream != nil) {
			t.Errorf("attack %q: Caps.Streaming=%v but BuildStream presence=%v",
				mode, spec.Caps.Streaming, spec.BuildStream != nil)
		}
		if spec.Caps.Streaming && spec.StreamPasses < 1 {
			t.Errorf("attack %q: streaming but StreamPasses=%d", mode, spec.StreamPasses)
		}
		if !spec.Caps.Streaming && spec.StreamPasses != 0 {
			t.Errorf("attack %q: memory-only but StreamPasses=%d", mode, spec.StreamPasses)
		}
	}
	for _, mode := range r.DefenseModes() {
		spec, err := r.LookupDefense(mode)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Description == "" {
			t.Errorf("defense %q: missing description", mode)
		}
	}
	for _, mode := range r.UtilityModes() {
		spec, err := r.LookupUtility(mode)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Description == "" {
			t.Errorf("utility %q: missing description", mode)
		}
	}
}

// TestAttackConformance runs every registered attack through the shared
// property checks.
func TestAttackConformance(t *testing.T) {
	r := Builtins()
	orig, disg := conformanceFixture(t)
	_ = orig
	for _, mode := range r.AttackModes() {
		spec, err := r.LookupAttack(mode)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(mode, func(t *testing.T) {
			baseline, err := spec.Build(attackFixtureCtx())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want, err := baseline.Reconstruct(disg)
			if err != nil {
				t.Fatalf("reconstruct: %v", err)
			}

			t.Run("determinism", func(t *testing.T) {
				a, err := spec.Build(attackFixtureCtx())
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.Reconstruct(disg)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(t, got, want); d != 0 {
					t.Errorf("rebuilt attack drifted by %g", d)
				}
			})

			t.Run("concurrent determinism", func(t *testing.T) {
				// Fresh instances per goroutine: suites sharing a workspace
				// must not run concurrently, and the registry builds each
				// request its own.
				const workers = 4
				results := make([]*mat.Dense, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						a, err := spec.Build(attackFixtureCtx())
						if err != nil {
							errs[w] = err
							return
						}
						results[w], errs[w] = a.Reconstruct(disg)
					}(w)
				}
				wg.Wait()
				for w := 0; w < workers; w++ {
					if errs[w] != nil {
						t.Fatalf("worker %d: %v", w, errs[w])
					}
					if d := maxAbsDiff(t, results[w], want); d != 0 {
						t.Errorf("worker %d drifted from serial result by %g", w, d)
					}
				}
			})

			t.Run("param validation", func(t *testing.T) {
				if mode == "ndr" {
					t.Skip("NDR has no parameters to validate")
				}
				for _, bad := range []float64{0, -1, math.NaN()} {
					a, err := spec.Build(AttackContext{Noise: NoiseModel{Sigma2: bad}})
					if err != nil {
						continue // rejected at the boundary: good
					}
					if _, err := a.Reconstruct(disg); err == nil {
						t.Errorf("sigma2=%v accepted", bad)
					}
				}
			})

			t.Run("non-finite input", func(t *testing.T) {
				// The error must name the value: rejected at the boundary,
				// not by whatever the NaN or Inf breaks further in.
				rejected := func(err error) bool {
					return err != nil && strings.Contains(err.Error(), "non-finite")
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					y := disg.Clone()
					y.Set(y.Rows()/2, y.Cols()-1, bad)
					a, err := spec.Build(attackFixtureCtx())
					if err != nil {
						t.Fatal(err)
					}
					if _, err := a.Reconstruct(y); !rejected(err) {
						t.Errorf("Reconstruct on %v input: err = %v, want a non-finite rejection", bad, err)
					}
					if !spec.Caps.Streaming {
						continue
					}
					sa, err := spec.BuildStream(attackFixtureCtx())
					if err != nil {
						t.Fatal(err)
					}
					var col stream.Collector
					if err := sa.ReconstructStream(stream.NewMatrixSource(y, 37), &col); !rejected(err) {
						t.Errorf("ReconstructStream on %v input: err = %v, want a non-finite rejection", bad, err)
					}
				}
			})

			if !spec.Caps.Streaming {
				return
			}

			t.Run("stream agreement", func(t *testing.T) {
				a, err := spec.BuildStream(attackFixtureCtx())
				if err != nil {
					t.Fatal(err)
				}
				var col stream.Collector
				if err := a.ReconstructStream(stream.NewMatrixSource(disg, 37), &col); err != nil {
					t.Fatalf("stream reconstruct: %v", err)
				}
				if d := maxAbsDiff(t, col.Data, want); d > 1e-9 {
					t.Errorf("stream result drifted from memory result by %g (> 1e-9)", d)
				}
			})

			t.Run("cancellation", func(t *testing.T) {
				a, err := spec.BuildStream(attackFixtureCtx())
				if err != nil {
					t.Fatal(err)
				}
				var col stream.Collector
				if err := a.ReconstructStream(canceledSource(disg), &col); err == nil {
					t.Error("canceled source did not fail the reconstruction")
				}
			})
		})
	}
}

// TestDefenseConformance runs every registered defense through the
// shared property checks.
func TestDefenseConformance(t *testing.T) {
	r := Builtins()
	orig, _ := conformanceFixture(t)
	baseCtx := func() DefenseContext {
		return DefenseContext{
			Sigma: 5, Epsilon: 1, Delta: 1e-5, Sensitivity: 1,
			DataCov: dataCovOf(t, orig),
		}
	}
	for _, mode := range r.DefenseModes() {
		spec, err := r.LookupDefense(mode)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(mode, func(t *testing.T) {
			bd, err := spec.Build(baseCtx())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if bd.Noiseless != spec.Noiseless {
				t.Errorf("built Noiseless=%v, spec says %v", bd.Noiseless, spec.Noiseless)
			}
			if !(bd.Noise.Sigma2 > 0) {
				t.Errorf("noise model variance %v, want > 0", bd.Noise.Sigma2)
			}
			if bd.Scheme.Describe() == "" {
				t.Error("empty scheme description")
			}
			scheme, ok := bd.Scheme.(randomize.Scheme)
			if !ok {
				t.Fatalf("scheme %T does not implement the in-memory Scheme interface", bd.Scheme)
			}
			want, err := scheme.Perturb(orig, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatalf("perturb: %v", err)
			}

			t.Run("seed determinism", func(t *testing.T) {
				const workers = 4
				results := make([]*randomize.Perturbed, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						bdw, err := spec.Build(baseCtx())
						if err != nil {
							errs[w] = err
							return
						}
						results[w], errs[w] = bdw.Scheme.(randomize.Scheme).Perturb(orig, rand.New(rand.NewSource(9)))
					}(w)
				}
				wg.Wait()
				for w := 0; w < workers; w++ {
					if errs[w] != nil {
						t.Fatalf("worker %d: %v", w, errs[w])
					}
					if d := maxAbsDiff(t, results[w].Y, want.Y); d != 0 {
						t.Errorf("worker %d: equal seed diverged by %g", w, d)
					}
				}
			})

			t.Run("stream agreement", func(t *testing.T) {
				var col stream.Collector
				if err := bd.Scheme.PerturbStream(stream.NewMatrixSource(orig, 37), &col, rand.New(rand.NewSource(9))); err != nil {
					t.Fatalf("perturb stream: %v", err)
				}
				if d := maxAbsDiff(t, col.Data, want.Y); d > 1e-9 {
					t.Errorf("streamed perturbation drifted from in-memory by %g (> 1e-9)", d)
				}
			})

			t.Run("seeded flag", func(t *testing.T) {
				other, err := scheme.Perturb(orig, rand.New(rand.NewSource(10)))
				if err != nil {
					t.Fatal(err)
				}
				moved := maxAbsDiff(t, other.Y, want.Y) > 0
				if spec.Caps.Seeded && !moved {
					t.Error("Caps.Seeded but different seeds produced identical output")
				}
				if !spec.Caps.Seeded && moved {
					t.Error("not Caps.Seeded but the seed changed the output")
				}
			})

			t.Run("cancellation", func(t *testing.T) {
				var col stream.Collector
				if err := bd.Scheme.PerturbStream(canceledSource(orig), &col, rand.New(rand.NewSource(9))); err == nil {
					t.Error("canceled source did not fail the perturbation")
				}
			})

			t.Run("param validation", func(t *testing.T) {
				// Every parameter invalid at once: whichever subset the
				// defense consumes, Build must reject.
				bad := DefenseContext{
					Sigma: -1, Epsilon: -1, Delta: 0, Sensitivity: -1,
					DataCov: dataCovOf(t, orig),
				}
				if _, err := spec.Build(bad); err == nil {
					t.Error("all-invalid parameters accepted")
				}
			})

			if spec.Noiseless {
				t.Run("noiseless identity", func(t *testing.T) {
					if d := maxAbsDiff(t, want.Y, orig); d != 0 {
						t.Errorf("noiseless defense changed the data by %g", d)
					}
				})
			}
		})
	}
}

// TestUtilityConformance runs every registered utility probe through the
// shared property checks.
func TestUtilityConformance(t *testing.T) {
	r := Builtins()
	orig, disg := conformanceFixture(t)
	baseCtx := UtilityContext{Ctx: context.Background(), K: 3, Seed: 42}
	for _, mode := range r.UtilityModes() {
		spec, err := r.LookupUtility(mode)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(mode, func(t *testing.T) {
			want, err := spec.Run(baseCtx, orig, disg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(want) == 0 {
				t.Fatal("no metrics returned")
			}
			for k, v := range want {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %q = %v, want finite", k, v)
				}
			}

			t.Run("seed determinism", func(t *testing.T) {
				got, err := spec.Run(baseCtx, orig, disg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("equal seed diverged: %v vs %v", got, want)
				}
			})

			t.Run("cancellation", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := spec.Run(UtilityContext{Ctx: ctx, K: 3, Seed: 42}, orig, disg); err == nil {
					t.Error("canceled context did not fail the probe")
				}
			})

			t.Run("input validation", func(t *testing.T) {
				if _, err := spec.Run(baseCtx, nil, nil); err == nil {
					t.Error("nil inputs accepted")
				}
				_, m := orig.Dims()
				narrower := disg.Slice(0, disg.Rows(), 0, m-1)
				if _, err := spec.Run(baseCtx, orig, narrower); err == nil {
					t.Error("shape-mismatched inputs accepted")
				}
			})
		})
	}
}
