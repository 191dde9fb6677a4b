// Coordinator: waits for enqueued tasks' done files while reclaiming
// expired leases, and optionally embeds claim loops of its own.

package cluster

import (
	"context"
	"fmt"
	"log"
	"time"
)

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// Node is this coordinator's cluster identity (required).
	Node string
	// LeaseTTL is how stale an owner's heartbeat may be before its
	// claims are reclaimed (default 5s). Worker heartbeat periods must
	// be comfortably shorter.
	LeaseTTL time.Duration
	// Poll is the done-file polling period while awaiting tasks
	// (default 25ms).
	Poll time.Duration
	// Workers is how many claim loops the coordinator itself embeds, so
	// a solo coordinator still makes progress with no worker processes
	// attached (default 1; negative means none — the pure-coordinator
	// shape the load test uses to isolate worker scaling).
	Workers int
	// HeartbeatEvery is the embedded workers' heartbeat period
	// (default 1s).
	HeartbeatEvery time.Duration
	// Log receives diagnostics; nil uses log.Default().
	Log *log.Logger
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 5 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
	return o
}

// Coordinator collects the results of tasks enqueued on its store. It
// optionally embeds claim loops of its own.
type Coordinator struct {
	store   *Store
	opts    CoordinatorOptions
	workers []*Worker
}

// NewCoordinator builds a coordinator and its embedded workers.
// Register the task runners, then Start.
func NewCoordinator(st *Store, opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	if err := validNodeID(opts.Node); err != nil {
		return nil, err
	}
	c := &Coordinator{store: st, opts: opts}
	for i := 0; i < opts.Workers; i++ {
		w, err := NewWorker(st, WorkerOptions{
			Node:           fmt.Sprintf("%s-w%d", opts.Node, i),
			Role:           "coordinator",
			Poll:           opts.Poll,
			HeartbeatEvery: opts.HeartbeatEvery,
			Log:            opts.Log,
		})
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// Register installs a runner for one task kind on every embedded worker.
func (c *Coordinator) Register(typ string, r TaskRunner) {
	for _, w := range c.workers {
		w.Register(typ, r)
	}
}

// Start launches the embedded workers (if any) and writes the
// coordinator's own heartbeat so it shows up on /v1/status node listings.
func (c *Coordinator) Start() error {
	if err := c.store.WriteHeartbeat(Heartbeat{Node: c.opts.Node, Role: "coordinator", Time: time.Now().UTC()}); err != nil {
		return err
	}
	for _, w := range c.workers {
		if err := w.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the embedded workers gracefully.
func (c *Coordinator) Close() {
	for _, w := range c.workers {
		w.Stop()
	}
}

// Store returns the coordinator's store handle.
func (c *Coordinator) Store() *Store { return c.store }

// AwaitFunc polls until every task id has a done file, reclaiming
// expired leases as it waits — that is what makes a killed worker's task
// converge instead of hanging. The results come back in id order; the
// first failed task (in slice order) fails the whole wait. done (when
// non-nil) is invoked once per task, in resolution order, with the
// task's index in ids and its result bytes — the coordinator-side
// progress seam for delegated sweeps. The hook runs on the polling
// goroutine, so it must be cheap and must not block.
func (c *Coordinator) AwaitFunc(ctx context.Context, ids []string, done func(i int, body []byte)) ([][]byte, error) {
	results := make([][]byte, len(ids))
	resolved := make([]bool, len(ids))
	remaining := len(ids)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, id := range ids {
			if resolved[i] {
				continue
			}
			body, taskErr, ok, err := c.store.TaskResult(id)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if taskErr != "" {
				return nil, fmt.Errorf("cluster: task %s failed: %s", id, taskErr)
			}
			results[i] = body
			resolved[i] = true
			remaining--
			if done != nil {
				done(i, body)
			}
		}
		if remaining == 0 {
			break
		}
		if _, err := c.store.ReclaimExpired(c.opts.LeaseTTL, time.Now().UTC()); err != nil {
			c.opts.Log.Printf("cluster: reclaim: %v", err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.opts.Poll):
		}
	}
	return results, nil
}

// AliveWorkers counts claim loops currently able to take tasks: nodes
// with a live worker heartbeat within the lease TTL, plus this
// coordinator's own embedded workers. /v1/status reports it.
func (c *Coordinator) AliveWorkers(now time.Time) int {
	alive := len(c.workers)
	nodes, err := c.store.Nodes()
	if err != nil {
		return alive
	}
	for _, hb := range nodes {
		if hb.Role == "worker" && now.Sub(hb.Time) <= c.opts.LeaseTTL {
			alive++
		}
	}
	return alive
}
