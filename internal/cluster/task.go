// The task queue: content-addressed task files moved between the
// pending/claimed/done directories by atomic renames.

package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// TaskSweepGroup is the one task kind: it executes one perturbation
// group of a compiled plan end-to-end — perturb, shared sketch, every
// attack and utility of the group's points — against the
// content-addressed upload; a plain assessment job is a one-point group
// (the server registers its runner; the cluster package only routes it).
const TaskSweepGroup = "sweepgroup"

// Task is one unit of claimable work. The ID is derived from the task's
// content (kind plus its input digests), which makes Enqueue idempotent,
// lets a restarted coordinator find its earlier results by recomputing
// the same IDs, and dedups identical work across jobs.
type Task struct {
	ID   string `json:"id"`
	Type string `json:"type"`

	// The server-interpreted JSON spec and the CAS digest of the upload
	// it runs against.
	Spec   json.RawMessage `json:"spec,omitempty"`
	Digest string          `json:"digest,omitempty"`

	// owner is the claim-time node id; never serialized.
	owner string
}

// taskID derives the content address of a task from its identity parts.
func taskID(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "|")))
	return hex.EncodeToString(sum[:])
}

// NewSweepGroupTask builds the task for one perturbation group of a
// plan. The server-interpreted spec bytes are part of the identity (they
// name the group's points canonically — randprivd marshals them with
// encoding/json, which is deterministic), so a restarted coordinator
// recomputes the same IDs and finds its earlier done files, and
// identical groups across jobs dedup.
func NewSweepGroupTask(spec json.RawMessage, digest string) Task {
	return Task{
		ID:     taskID("sweepgroup", string(spec), digest),
		Type:   TaskSweepGroup,
		Spec:   append(json.RawMessage(nil), spec...),
		Digest: digest,
	}
}

// validate rejects tasks whose references could escape the state dir.
func (t *Task) validate() error {
	if !hexDigest(t.ID) {
		return fmt.Errorf("cluster: task id %q is not a hex digest", t.ID)
	}
	if t.Digest != "" && !hexDigest(t.Digest) {
		return fmt.Errorf("cluster: task %s: upload digest %q is not a hex digest", t.ID, t.Digest)
	}
	return nil
}

// doneFile is the completion envelope written to tasks/done/<id>.json.
// Exactly one of Error/Result is meaningful: a task that failed
// deterministically stays failed (re-running it would fail identically),
// so failures are terminal results, not retries.
type doneFile struct {
	// Type is the completed task's kind, carried so the per-kind queue
	// gauges can bucket done files without a task-file lookup. Duplicate
	// completions copy it from the same task, so the envelope stays
	// byte-identical.
	Type   string `json:"type,omitempty"`
	Error  string `json:"error,omitempty"`
	Result []byte `json:"result,omitempty"` // base64 via encoding/json
}

// Enqueue makes the task claimable, idempotently: a task that is already
// pending, claimed or done is left untouched. Callers poll TaskResult
// for completion.
func (s *Store) Enqueue(t Task) error {
	if err := t.validate(); err != nil {
		return err
	}
	if s.taskResolved(t.ID) || s.taskClaimed(t.ID) {
		return nil
	}
	body, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("cluster: encode task: %w", err)
	}
	// Racing enqueuers rename identical content onto the same path;
	// whoever loses changed nothing.
	return s.writeAtomic(filepath.Join(s.pendingDir(), t.ID+".json"), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// taskResolved reports whether a done file exists for id.
func (s *Store) taskResolved(id string) bool {
	_, err := s.fs.Stat(filepath.Join(s.doneDir(), id+".json"))
	return err == nil
}

// taskClaimed reports whether any node currently holds a lease on id.
func (s *Store) taskClaimed(id string) bool {
	entries, err := s.fs.ReadDir(s.claimedDir())
	if err != nil {
		return false
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), id+".") {
			return true
		}
	}
	return false
}

// Claim leases one pending task to node via the atomic-rename protocol
// and returns it, or nil when nothing is claimable. Tasks are scanned in
// name order so competing claimers mostly collide on the same few files
// and resolve quickly; the rename is the arbiter — exactly one claimer
// wins each task. Claim renames are deliberately NOT retried: losing the
// race is the common case, not a fault, and a retry would just re-lose.
func (s *Store) Claim(node string) (*Task, error) {
	if err := validNodeID(node); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(s.pendingDir())
	if err != nil {
		return nil, fmt.Errorf("cluster: scan pending: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		id := strings.TrimSuffix(name, ".json")
		if !hexDigest(id) {
			continue
		}
		src := filepath.Join(s.pendingDir(), name)
		if s.taskResolved(id) {
			// A reclaim raced a completion: the work is already done, so
			// the stale pending file is garbage, not work.
			s.fs.Remove(src)
			continue
		}
		body, err := s.fs.ReadFile(src)
		if err != nil {
			continue // lost the claim race at the read
		}
		dst := filepath.Join(s.claimedDir(), id+"."+node+".json")
		if err := s.fs.Rename(src, dst); err != nil {
			continue // lost the claim race at the rename
		}
		var t Task
		if err := json.Unmarshal(body, &t); err != nil || t.ID != id || t.validate() != nil {
			// Corrupt task file: it can never run, and leaving it claimed
			// would wedge reclaim forever. Fail it terminally.
			t = Task{ID: id, owner: node}
			_ = s.Complete(&t, nil, fmt.Sprintf("cluster: corrupt task file %s", name))
			continue
		}
		t.owner = node
		return &t, nil
	}
	return nil, nil
}

// Release returns a claimed task to pending — the graceful-shutdown
// path, so another worker picks the task up immediately instead of
// waiting out the lease.
func (s *Store) Release(t *Task) error {
	if t.owner == "" {
		return fmt.Errorf("cluster: release of unclaimed task %s", t.ID)
	}
	src := filepath.Join(s.claimedDir(), t.ID+"."+t.owner+".json")
	dst := filepath.Join(s.pendingDir(), t.ID+".json")
	if err := s.fs.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cluster: release task: %w", err)
	}
	return nil
}

// Complete resolves a task: result bytes on success, a terminal error
// message on deterministic failure. Duplicate completions (a reclaimed
// task finishing twice) are safe — deterministic runners produce
// byte-identical envelopes and the rename just replaces like with like.
func (s *Store) Complete(t *Task, result []byte, taskErr string) error {
	body, err := json.Marshal(doneFile{Type: t.Type, Error: taskErr, Result: result})
	if err != nil {
		return fmt.Errorf("cluster: encode done file: %w", err)
	}
	err = s.writeAtomic(filepath.Join(s.doneDir(), t.ID+".json"), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
	if err != nil {
		return err
	}
	if t.owner != "" {
		s.fs.Remove(filepath.Join(s.claimedDir(), t.ID+"."+t.owner+".json"))
	}
	return nil
}

// TaskResult reads a task's completion envelope. ok is false while the
// task is still pending or claimed. Transient read faults (a device
// hiccup under a polling AwaitFunc) retry before surfacing; a missing file
// is not a fault, just "not done yet".
func (s *Store) TaskResult(id string) (result []byte, taskErr string, ok bool, err error) {
	var body []byte
	err = s.ioRetry.Do(context.Background(), func() error {
		var rerr error
		body, rerr = s.fs.ReadFile(filepath.Join(s.doneDir(), id+".json"))
		return rerr
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, "", false, nil
	}
	if err != nil {
		return nil, "", false, fmt.Errorf("cluster: read done file: %w", err)
	}
	var df doneFile
	if err := json.Unmarshal(body, &df); err != nil {
		return nil, "", false, fmt.Errorf("cluster: decode done file %s: %w", id, err)
	}
	return df.Result, df.Error, true, nil
}

// ReclaimExpired scans the claimed directory and returns every task
// whose owner is dead (no heartbeat, a corrupt one, or one older than
// ttl) to the pending queue. It returns how many leases were reclaimed.
// Any node may run this — typically the coordinator, while it waits on
// its tasks.
func (s *Store) ReclaimExpired(ttl time.Duration, now time.Time) (int, error) {
	entries, err := s.fs.ReadDir(s.claimedDir())
	if err != nil {
		return 0, fmt.Errorf("cluster: scan claimed: %w", err)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Name() < entries[b].Name() })
	reclaimed := 0
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		// <64-hex id>.<node>
		if len(name) < 66 || name[64] != '.' || !hexDigest(name[:64]) {
			continue
		}
		id, node := name[:64], name[65:]
		if s.nodeAlive(node, ttl, now) {
			continue
		}
		src := filepath.Join(s.claimedDir(), e.Name())
		if s.taskResolved(id) {
			// The owner completed and crashed before removing its claim
			// file; nothing to re-run.
			s.fs.Remove(src)
			continue
		}
		if err := s.fs.Rename(src, filepath.Join(s.pendingDir(), id+".json")); err != nil {
			continue // someone else reclaimed or the owner completed; either way resolved
		}
		reclaimed++
	}
	return reclaimed, nil
}
