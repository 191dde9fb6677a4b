// Command randprivd serves the privacy-assessment pipeline over HTTP:
// the "assess privacy before you publish" loop of Huang, Du & Chen
// (SIGMOD 2005), offered as a long-running service instead of a one-shot
// CLI.
//
// Usage:
//
//	randprivd [-addr :8080] [-workers N] [-queue 64] [-max-body 1073741824]
//	          [-timeout 60s] [-cache 128] [-chunk 4096] [-spool DIR]
//	          [-jobs-dir DIR] [-job-workers N] [-job-queue 64] [-job-ttl 24h]
//	          [-sweep-max-points 4096]
//	          [-cluster-dir DIR] [-node-id ID] [-role coordinator|worker]
//	          [-cluster-workers N]
//
// With -cluster-dir, several randprivd processes sharing one state
// directory form a cluster. The default -role coordinator serves the
// full HTTP API and delegates jobs to the shared task queue: plain
// assessment jobs as one-point plans, and multipart sweeps partitioned
// at perturbation-group boundaries, so each worker runs one disguise
// pass end-to-end. A synchronous /v1/assess runs on the coordinator
// itself, behind a result cache every node shares.
// -role worker serves only /healthz and /v1/status and spends its
// capacity claiming and executing tasks. Workers that crash mid-task
// lose their lease after the heartbeat TTL and the work re-runs
// elsewhere, to byte-identical results.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/perturb?sigma=5&seed=1&scheme=additive|correlated   CSV -> CSV
//	POST /v1/attack?sigma=5&attack=ndr|pcadr|bedr[&correlated=1] CSV -> CSV
//	POST /v1/assess?sigma=5&seed=1&scheme=...[&stream=1]         CSV -> JSON
//	POST   /v1/jobs?sigma=5&seed=1&scheme=...[&stream=1]         CSV -> job id
//	POST   /v1/jobs  (multipart: spec + data)                    sweep -> job id
//	GET    /v1/jobs[?state=...&limit=N&cursor=...]               listing JSON
//	GET    /v1/jobs/{id}                                         status JSON
//	GET    /v1/jobs/{id}/result                                  report JSON
//	DELETE /v1/jobs/{id}                                         cancel/remove
//	GET  /healthz                                                liveness
//	GET  /v1/status                                              gauges
//	GET  /v1/schemes
//
// Jobs submitted to /v1/jobs persist their spec and upload under
// -jobs-dir; a restarted server re-runs any job the previous process
// left queued or running, to byte-identical results. A multipart
// submission carries a JSON sweep spec whose parameter grid is compiled
// into a shared-scan plan; -sweep-max-points bounds how large a grid
// one spec may request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"randpriv/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "randprivd: %v\n", err)
		os.Exit(1)
	}
}

// newServer is server.New, with a directory it cannot create or open
// reported against the flag that named it.
func newServer(cfg server.Config) (*server.Server, error) {
	srv, err := server.New(cfg)
	switch {
	case errors.Is(err, server.ErrSpoolDir):
		return nil, fmt.Errorf("-spool: %w", err)
	case errors.Is(err, server.ErrJobsDir):
		return nil, fmt.Errorf("-jobs-dir: %w", err)
	case errors.Is(err, server.ErrClusterDir):
		return nil, fmt.Errorf("-cluster-dir: %w", err)
	}
	return srv, err
}

func run(args []string) error {
	fs := flag.NewFlagSet("randprivd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "compute pool size (0 = all cores)")
	queue := fs.Int("queue", 64, "max queued requests beyond the running ones (overload returns 429)")
	maxBody := fs.Int64("max-body", 1<<30, "max upload size in bytes (beyond returns 413)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request deadline covering queue wait and compute")
	cache := fs.Int("cache", 128, "assessment LRU cache entries (negative disables)")
	chunk := fs.Int("chunk", 4096, "default streaming chunk rows (?chunk= overrides)")
	spool := fs.String("spool", "", "spool directory for uploaded bodies (default: system temp dir)")
	jobsDir := fs.String("jobs-dir", "", "async-job state directory; jobs here survive restarts (default: <tmp>/randprivd-jobs)")
	jobWorkers := fs.Int("job-workers", 0, "background job pool size, separate from -workers (0 = half the cores)")
	jobQueue := fs.Int("job-queue", 64, "max jobs queued beyond the running ones before POST /v1/jobs returns 429")
	jobTTL := fs.Duration("job-ttl", 24*time.Hour, "retention of finished jobs and their results (negative keeps forever)")
	sweepMax := fs.Int("sweep-max-points", 4096, "max grid points one sweep spec may expand to (negative removes the cap)")
	clusterDir := fs.String("cluster-dir", "", "shared cluster state directory; empty runs single-process")
	nodeID := fs.String("node-id", "", "this process's cluster identity (default: hostname-pid)")
	role := fs.String("role", "coordinator", "cluster role: coordinator serves the API, worker only executes tasks")
	clusterWorkers := fs.Int("cluster-workers", 0, "claim loops this node runs (0 = 1; coordinator: negative = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	// Reject nonsense values at startup instead of letting a typo run a
	// misconfigured daemon. Negative values that mean something stay
	// legal: -job-ttl < 0 keeps jobs forever, and a coordinator's
	// -cluster-workers < 0 disables its embedded claim loops.
	if *timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", *timeout)
	}
	if *queue < 0 {
		return fmt.Errorf("-queue must be >= 0, got %d", *queue)
	}
	if *jobTTL == 0 {
		return fmt.Errorf("-job-ttl must be nonzero (positive expires finished jobs, negative keeps them forever)")
	}
	if *role != "coordinator" && *role != "worker" {
		return fmt.Errorf("unknown -role %q (want coordinator or worker)", *role)
	}
	if *role == "worker" {
		if *clusterDir == "" {
			return fmt.Errorf("-role worker requires -cluster-dir")
		}
		if *clusterWorkers < 0 {
			return fmt.Errorf("-cluster-workers must be >= 0 for -role worker, got %d (a worker without claim loops does nothing)", *clusterWorkers)
		}
		return runWorker(*addr, *clusterDir, *nodeID, *clusterWorkers, *chunk, *spool, *timeout, logger)
	}
	srv, err := newServer(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		CacheEntries:   *cache,
		ChunkRows:      *chunk,
		SpoolDir:       *spool,
		JobsDir:        *jobsDir,
		JobWorkers:     *jobWorkers,
		JobQueueDepth:  *jobQueue,
		JobTTL:         *jobTTL,
		SweepMaxPoints: *sweepMax,
		ClusterDir:     *clusterDir,
		NodeID:         *nodeID,
		ClusterWorkers: *clusterWorkers,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// The handlers enforce their own compute deadline; these bound
		// the slow-client side. ReadTimeout covers the whole body, so a
		// stalled upload cannot outlive the request deadline by much.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("randprivd: listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Printf("randprivd: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		return nil
	}
}
