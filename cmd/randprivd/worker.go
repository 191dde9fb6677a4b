// The -role worker process: no API surface beyond /healthz liveness
// and /v1/status gauges, all capacity spent claiming and executing
// cluster tasks. A worker shares
// the assessment code with the coordinator through server.Server — the
// same runner computes a delegated job here and on a coordinator's
// embedded claim loop, which is what makes results byte-identical no
// matter where they run.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/server"
)

// workerNodeID mirrors the server's default cluster identity:
// filename-safe hostname plus pid.
func workerNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var b strings.Builder
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return fmt.Sprintf("%s-%d", b.String(), os.Getpid())
}

// runWorker stands up a worker-role node: claim loops over the shared
// state directory plus a minimal /healthz.
func runWorker(addr, dir, node string, nWorkers, chunk int, spool string, timeout time.Duration, logger *log.Logger) error {
	if node == "" {
		node = workerNodeID()
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	st, err := cluster.Open(dir)
	if err != nil {
		return err
	}
	// The compute side is a full server.Server — without ClusterDir, so
	// this node never starts a coordinator of its own — with its job
	// state tucked under a node-private directory (two processes must
	// never share a jobs dir).
	srv, err := newServer(server.Config{
		ChunkRows: chunk,
		SpoolDir:  spool,
		JobsDir:   filepath.Join(dir, "node-local", node, "jobs"),
		Log:       logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	workers := make([]*cluster.Worker, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		name := node
		if nWorkers > 1 {
			name = fmt.Sprintf("%s-w%d", node, i)
		}
		w, err := cluster.NewWorker(st, cluster.WorkerOptions{Node: name, Log: logger})
		if err != nil {
			return err
		}
		srv.RegisterRunners(w)
		if err := w.Start(); err != nil {
			return err
		}
		defer w.Stop()
		workers = append(workers, w)
	}

	mux := http.NewServeMux()
	// Liveness only; the gauges live on /v1/status, mirroring the
	// coordinator's API split.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Status string `json:"status"`
			Role   string `json:"role"`
		}{"ok", "worker"})
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		var claimed, done, failed int64
		for _, wk := range workers {
			c, d, f := wk.Stats()
			claimed, done, failed = claimed+c, done+d, failed+f
		}
		pending, leased, resolved := st.QueueStats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Node         string                       `json:"node"`
			Role         string                       `json:"role"`
			ClaimLoops   int                          `json:"claim_loops"`
			TasksClaimed int64                        `json:"tasks_claimed"`
			TasksDone    int64                        `json:"tasks_done"`
			TasksFailed  int64                        `json:"tasks_failed"`
			TasksPending int                          `json:"tasks_pending"`
			TasksLeased  int                          `json:"tasks_leased"`
			TasksDoneAll int                          `json:"tasks_done_all"`
			TasksByKind  map[string]cluster.KindStats `json:"tasks_by_kind"`
		}{node, "worker", nWorkers, claimed, done, failed, pending, leased, resolved, st.QueueStatsByKind()})
	})
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeout,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("randprivd: worker %s on %s, %d claim loops over %s", node, addr, nWorkers, dir)
		errCh <- httpSrv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Printf("randprivd: worker %s: %v, shutting down", node, s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}
