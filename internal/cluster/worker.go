// Worker: a claim loop plus a heartbeat loop over a shared Store.

package cluster

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// TaskRunner executes one task kind. Runners must be deterministic in
// the task's content-addressed inputs: a reclaimed task may run twice,
// and the protocol's safety rests on both runs writing identical bytes.
type TaskRunner func(ctx context.Context, st *Store, t *Task) ([]byte, error)

// WorkerHooks are test seams for the fault-injection harness.
type WorkerHooks struct {
	// BeforeRun, when non-nil, runs after a task is claimed and before
	// its runner starts. The harness uses it to hold a worker mid-task
	// while the test kills it or corrupts its heartbeat.
	BeforeRun func(t *Task)
}

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// Node is this worker's cluster-wide identity (required,
	// filename-safe). Claim files and the heartbeat carry it.
	Node string
	// Role is reported in the heartbeat for /v1/status ("worker",
	// "coordinator", ...). Default "worker".
	Role string
	// Poll is how long to sleep when no task is claimable (default 25ms).
	Poll time.Duration
	// HeartbeatEvery is the heartbeat rewrite period (default 1s). It
	// must be comfortably under the cluster's lease TTL or live workers
	// get their tasks reclaimed out from under them.
	HeartbeatEvery time.Duration
	// Log receives diagnostics; nil uses log.Default().
	Log *log.Logger
	// Hooks are the fault-injection seams; zero means none.
	Hooks WorkerHooks
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Role == "" {
		o.Role = "worker"
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
	return o
}

// Worker claims and executes tasks from a shared Store until stopped.
type Worker struct {
	store   *Store
	opts    WorkerOptions
	runners map[string]TaskRunner

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	started bool
	killed  atomic.Bool

	claimed atomic.Int64
	done    atomic.Int64
	failed  atomic.Int64
}

// NewWorker builds a worker over st. Register runners, then Start.
func NewWorker(st *Store, opts WorkerOptions) (*Worker, error) {
	opts = opts.withDefaults()
	if err := validNodeID(opts.Node); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		store:   st,
		opts:    opts,
		runners: make(map[string]TaskRunner),
		ctx:     ctx,
		cancel:  cancel,
	}, nil
}

// Register installs the runner for one task kind. Must happen before
// Start.
func (w *Worker) Register(typ string, r TaskRunner) { w.runners[typ] = r }

// Start writes the first heartbeat synchronously — a worker must be
// provably alive before it claims anything, or the reclaim scan would
// judge its fresh leases abandoned — then launches the heartbeat and
// claim loops.
func (w *Worker) Start() error {
	if w.started {
		return fmt.Errorf("cluster: worker %s started twice", w.opts.Node)
	}
	if err := w.store.WriteHeartbeat(w.heartbeat()); err != nil {
		return err
	}
	w.started = true
	w.wg.Add(2)
	go w.heartbeatLoop()
	go w.claimLoop()
	return nil
}

// Stop shuts the worker down gracefully: the claim loop stops, a task
// in flight observes its canceled context and is released back to
// pending so another worker picks it up immediately.
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

// Kill simulates a crash: the heartbeat goes silent immediately and a
// claimed task is NOT released — it stays leased to a dead node until
// lease expiry reclaims it. This is the fault-injection harness's
// "kill -9 mid-task". Unlike Stop it does not wait for the loops: a
// crash doesn't wait for anything (and the harness kills workers that
// are deliberately blocked mid-task).
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.cancel()
}

// Stats returns the task gauges carried in the heartbeat.
func (w *Worker) Stats() (claimed, done, failed int64) {
	return w.claimed.Load(), w.done.Load(), w.failed.Load()
}

func (w *Worker) heartbeat() Heartbeat {
	return Heartbeat{
		Node:         w.opts.Node,
		Role:         w.opts.Role,
		Time:         time.Now().UTC(),
		TasksClaimed: w.claimed.Load(),
		TasksDone:    w.done.Load(),
		TasksFailed:  w.failed.Load(),
	}
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			// A killed worker's heartbeat goes silent exactly like a
			// crashed process's would; a graceful stop writes one last
			// beat so its terminal gauges are visible on /v1/status.
			if !w.killed.Load() {
				if err := w.store.WriteHeartbeat(w.heartbeat()); err != nil {
					w.opts.Log.Printf("cluster: %s: final heartbeat: %v", w.opts.Node, err)
				}
			}
			return
		case <-t.C:
			if err := w.store.WriteHeartbeat(w.heartbeat()); err != nil {
				w.opts.Log.Printf("cluster: %s: heartbeat: %v", w.opts.Node, err)
			}
		}
	}
}

// maxClaimBackoff caps how far the claim loop backs off when the state
// dir itself is erroring: far enough to stop hammering a sick disk,
// near enough to resume within a couple of seconds of it healing.
const maxClaimBackoff = 2 * time.Second

func (w *Worker) claimLoop() {
	defer w.wg.Done()
	// Consecutive Claim errors back the poll off exponentially (with a
	// small deterministic jitter keyed on the node id, so a fleet of
	// workers facing the same sick disk doesn't retry in lockstep). Any
	// success — a task or a clean empty scan — resets the backoff.
	jitter := rand.New(rand.NewSource(int64(nodeSeed(w.opts.Node))))
	errStreak := 0
	for {
		if w.ctx.Err() != nil {
			return
		}
		t, err := w.store.Claim(w.opts.Node)
		if err != nil {
			errStreak++
			w.opts.Log.Printf("cluster: %s: claim (streak %d): %v", w.opts.Node, errStreak, err)
		} else {
			errStreak = 0
		}
		if t == nil {
			sleep := w.opts.Poll
			if errStreak > 0 {
				sleep = w.opts.Poll << uint(errStreak-1)
				if sleep <= 0 || sleep > maxClaimBackoff {
					sleep = maxClaimBackoff
				}
				sleep += time.Duration(jitter.Int63n(int64(w.opts.Poll) + 1))
			}
			select {
			case <-w.ctx.Done():
				return
			case <-time.After(sleep):
			}
			continue
		}
		w.claimed.Add(1)
		w.runClaimed(t)
	}
}

// nodeSeed hashes a node id into a jitter seed: stable per node,
// different across nodes.
func nodeSeed(node string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	return h
}

// runClaimed executes one leased task through the completion protocol.
func (w *Worker) runClaimed(t *Task) {
	if hook := w.opts.Hooks.BeforeRun; hook != nil {
		hook(t)
	}
	if w.killed.Load() {
		// Crashed mid-task: abandon the lease for expiry to reclaim.
		return
	}
	runner, ok := w.runners[t.Type]
	if !ok {
		// No runner for this kind on this node is a deterministic
		// failure everywhere nodes share a binary; fail it terminally
		// rather than ping-ponging the lease.
		w.failed.Add(1)
		if err := w.store.Complete(t, nil, fmt.Sprintf("cluster: no runner for task type %q", t.Type)); err != nil {
			w.opts.Log.Printf("cluster: %s: complete %s: %v", w.opts.Node, t.ID, err)
		}
		return
	}
	body, err := runner(w.ctx, w.store, t)
	switch {
	case err != nil && w.ctx.Err() != nil:
		// Shutdown, not failure. Graceful stop releases the lease so the
		// task restarts elsewhere now; a kill abandons it to expiry.
		if !w.killed.Load() {
			if rerr := w.store.Release(t); rerr != nil {
				w.opts.Log.Printf("cluster: %s: release %s: %v", w.opts.Node, t.ID, rerr)
			}
		}
	case err != nil:
		w.failed.Add(1)
		if cerr := w.store.Complete(t, nil, err.Error()); cerr != nil {
			w.opts.Log.Printf("cluster: %s: complete %s: %v", w.opts.Node, t.ID, cerr)
		}
	default:
		w.done.Add(1)
		if cerr := w.store.Complete(t, body, ""); cerr != nil {
			w.opts.Log.Printf("cluster: %s: complete %s: %v", w.opts.Node, t.ID, cerr)
		}
	}
}
