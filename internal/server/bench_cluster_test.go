package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"testing"
	"time"
)

// BenchmarkClusterSweepJob times perfbench's sweep-cluster op in one
// process: a 4σ × 4-seed stream sweep — 16 points in 16 perturbation
// groups, so 16 sweepgroup tasks — over a 1000×20 upload at chunk 256,
// submitted as a multipart job to a cluster-mode server whose one
// embedded claim loop runs every task, and timed from submit to result
// (then deleted, as perfbench does). Every op sends the same upload with
// the next four seeds, so no point is served from a result cache, and an
// untimed first op pays whatever the cluster does once per upload.
func BenchmarkClusterSweepJob(b *testing.B) {
	_, ts := newTestServer(b, Config{
		ClusterDir: b.TempDir(), NodeID: "bench", ClusterWorkers: 1, JobWorkers: 1,
		Log: log.New(io.Discard, "", 0),
	})
	in := testCSV(b, 1000, 20, 3, 7)
	op := func(i int) {
		s := 4*i + 1
		spec := fmt.Sprintf(`{"defenses":[{"scheme":"additive","sigmas":[2,5,10,20]}],"seeds":[%d,%d,%d,%d],"chunk":256,"stream":true}`, s, s+1, s+2, s+3)
		status, _, out := postSweep(b, ts, "/v1/jobs", spec, in)
		if status != http.StatusAccepted {
			b.Fatalf("sweep submit = %d, body %s", status, out)
		}
		var js jobStatus
		if err := json.Unmarshal(out, &js); err != nil {
			b.Fatal(err)
		}
		// perfbench polls every 5 ms too.
		for js.State != "done" {
			if js.State == "failed" || js.State == "canceled" {
				b.Fatalf("sweep job %s (error %q)", js.State, js.Error)
			}
			time.Sleep(5 * time.Millisecond)
			_, js = getJob(b, ts, js.ID)
		}
		if status, body := getResult(b, ts, js.ID); status != http.StatusOK {
			b.Fatalf("sweep result = %d, body %s", status, body)
		}
		deleteJob(b, ts, js.ID)
	}
	op(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		op(i)
	}
}
