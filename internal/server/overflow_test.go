package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestOverflowingDefenseRejectedOnEveryPath: a noise scale near
// MaxFloat64 overflows the disguised copy or the report to ±Inf. Every
// path must reject it the same way: a 400 param_invalid on /v1/assess, a
// failed scalar job carrying the same message, a sweep that records
// that message as the point's error and carries on with its other
// points, and a 400 from /v1/perturb before any CSV byte. /v1/perturb
// builds no report, so at σ=1e307, where only the report overflows, it
// serves a finite disguised copy.
func TestOverflowingDefenseRejectedOnEveryPath(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1, JobWorkers: 1})
	in := testCSV(t, 300, 5, 2, 1)
	sigmas := map[string]float64{"1e307": 1e307, "1e308": 1e308}
	for _, mode := range []struct {
		name  string
		query string
		spec  string
	}{
		{"stream", "&stream=1", `,"stream":true`},
		{"memory", "", ""},
	} {
		t.Run(mode.name, func(t *testing.T) {
			spec := fmt.Sprintf(`{"defenses":[{"scheme":"additive","sigmas":[5,1e307,1e308]}],"seeds":[1],"chunk":32%s}`, mode.spec)
			_, res := runSweep(t, ts, spec, in)
			pointErr := make(map[float64]string)
			for _, pt := range res.Points {
				if pt.Params.Sigma == 5 {
					if len(pt.Report) == 0 || pt.Error != "" {
						t.Errorf("sigma=5 point: error %q, want a report (the sweep must carry on)", pt.Error)
					}
					continue
				}
				pointErr[pt.Params.Sigma] = pt.Error
			}

			for text, sigma := range sigmas {
				q := fmt.Sprintf("?sigma=%s&seed=1&chunk=32%s", text, mode.query)
				status, _, out := post(t, ts, "/v1/assess"+q, in)
				var env struct {
					Error string `json:"error"`
					Code  string `json:"code"`
				}
				if err := json.Unmarshal(out, &env); err != nil {
					t.Fatalf("%s: body %q is not the error envelope: %v", q, out, err)
				}
				if status != http.StatusBadRequest || env.Code != "param_invalid" {
					t.Fatalf("%s: status %d code %q (%s), want 400 param_invalid", q, status, env.Code, env.Error)
				}
				if got := pointErr[sigma]; got != env.Error {
					t.Errorf("%s: sweep point error %q, want the sync message %q", q, got, env.Error)
				}
				js := submitJob(t, ts, q, in)
				final := waitJob(t, ts, js.ID)
				if final.State != "failed" || final.Error != env.Error {
					t.Errorf("%s: job state %s error %q, want failed with %q", q, final.State, final.Error, env.Error)
				}
			}
		})
	}

	t.Run("perturb", func(t *testing.T) {
		spoolDir := t.TempDir()
		_, ps := newTestServer(t, Config{CacheEntries: -1, SpoolDir: spoolDir})
		for text, sigma := range sigmas {
			q := fmt.Sprintf("?sigma=%s&seed=1&chunk=32", text)
			status, _, out := post(t, ps, "/v1/perturb"+q, in)
			if sigma == 1e308 {
				_, _, assessOut := post(t, ps, "/v1/assess"+q, in)
				var env, want struct {
					Error string `json:"error"`
					Code  string `json:"code"`
				}
				if err := json.Unmarshal(out, &env); err != nil {
					t.Fatalf("/v1/perturb%s: body %.80q is not the error envelope: %v", q, out, err)
				}
				if err := json.Unmarshal(assessOut, &want); err != nil {
					t.Fatalf("/v1/assess%s: body %q is not the error envelope: %v", q, assessOut, err)
				}
				if status != http.StatusBadRequest || env.Code != "param_invalid" || env.Error != want.Error {
					t.Errorf("/v1/perturb%s: status %d code %q error %q, want 400 param_invalid %q", q, status, env.Code, env.Error, want.Error)
				}
			} else {
				if status != http.StatusOK {
					t.Fatalf("/v1/perturb%s: status %d (%s), want 200", q, status, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if len(lines) != 301 {
					t.Fatalf("/v1/perturb%s: %d lines, want a header and 300 rows", q, len(lines))
				}
				for i, line := range lines[1:] {
					for _, field := range strings.Split(line, ",") {
						v, err := strconv.ParseFloat(field, 64)
						if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
							t.Fatalf("/v1/perturb%s: row %d field %q is not a finite number", q, i, field)
						}
					}
				}
			}
			left, err := os.ReadDir(spoolDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("/v1/perturb%s: spool file %s left behind", q, e.Name())
			}
		}
	})
}

// TestOverflowingColumnRejected: an upload whose column spans ±1e308
// overflows that column's range to +Inf. UDR's estimates for it are
// NaN, and the sync assessment reports that as a 400 param_invalid
// naming the value, not as a panic or a 500.
func TestOverflowingColumnRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	status, _, out := post(t, ts, "/v1/assess?sigma=5", []byte("a,b\n-1e308,1\n1e308,2\n0,3\n5,4\n"))
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", out, err)
	}
	const want = "sweep: report value results[UDR].rmse is NaN: the parameters overflow float64"
	if status != http.StatusBadRequest || env.Code != "param_invalid" || env.Error != want {
		t.Errorf("status %d code %q error %q, want 400 param_invalid %q", status, env.Code, env.Error, want)
	}
}
