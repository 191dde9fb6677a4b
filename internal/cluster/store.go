// Package cluster promotes randprivd's single-process jobs subsystem to
// a coordinator/worker deployment over a shared state directory. The
// design is deliberately database-free: every coordination primitive is
// a filesystem operation whose atomicity POSIX already guarantees.
//
//	<dir>/cas/<sha256>.f64    — the validated float64 spool of the
//	                            upload whose CSV hashes to <sha256>;
//	                            every sweepgroup task reads its data here
//	<dir>/cas/<sha256>        — content-addressed blobs (PutFile,
//	                            PutBytes); no server path writes them
//	<dir>/results/<sha256>    — cached result bytes, keyed on the
//	                            assessment cache key's hash
//	<dir>/tasks/pending/      — enqueued tasks, one JSON file each
//	<dir>/tasks/claimed/      — leased tasks: <id>.<node>.json
//	<dir>/tasks/done/         — completed tasks: result envelope
//	<dir>/nodes/<node>.json   — heartbeat files, rewritten periodically
//
// The lease protocol is a single atomic rename: a worker claims a task
// by renaming tasks/pending/<id>.json to tasks/claimed/<id>.<node>.json.
// Exactly one rename wins; the losers see ENOENT and move on. Liveness
// is judged from the *content* of the owner's heartbeat file (a parsed
// timestamp), never from file mtimes — so a corrupted heartbeat reads as
// a dead node and the lease is reclaimed by renaming the task back to
// pending. Duplicate execution after a reclaim is safe by construction:
// every task runner is deterministic in the task's content-addressed
// inputs, so two completions write byte-identical done files and the
// last rename wins without changing anything.
//
// Storage faults are part of the model, not an afterthought: every
// filesystem touch goes through a faultfs.FS handle (injectable by the
// chaos suite), every commit point fsyncs the temp file and its parent
// directory before declaring success, transient-classifiable errors are
// retried under a capped-backoff policy, and Open sweeps the tmp/
// staging area for put-* files a crashed writer stranded.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"randpriv/internal/faultfs"
	"randpriv/internal/retry"
)

// Store is a handle on the shared cluster state directory. It holds no
// in-memory state beyond its filesystem handle: any number of Store
// instances in any number of processes may point at the same directory.
type Store struct {
	root    string
	fs      faultfs.FS
	ioRetry retry.Policy
}

// StoreOptions tunes a Store beyond its root directory.
type StoreOptions struct {
	// FS is the filesystem the state dir lives on; nil uses the OS
	// passthrough. The chaos suite injects storage faults through it.
	FS faultfs.FS
	// Retry is the backoff policy wrapped around transient-classifiable
	// state-dir I/O. A zero Attempts selects the default: 4 attempts,
	// 5ms base, 100ms cap, no jitter (deterministic).
	Retry retry.Policy
	// OrphanAge is how old a tmp/put-* staging file must be before
	// Open's startup sweep removes it (another live process may still
	// be mid-write on a younger one). 0 means the 1h default; negative
	// disables the sweep. Tests call SweepOrphans(0) directly for an
	// unconditional sweep.
	OrphanAge time.Duration
}

// Subdirectories of the state dir, created by Open.
var storeLayout = []string{
	"cas",
	"results",
	"nodes",
	filepath.Join("tasks", "pending"),
	filepath.Join("tasks", "claimed"),
	filepath.Join("tasks", "done"),
	"tmp",
}

// defaultOrphanAge gates the startup sweep: a staging file this old has
// no live writer (writes are seconds, not hours).
const defaultOrphanAge = time.Hour

// Open creates (if needed) the state directory layout and returns a
// handle with default options. Open is idempotent and safe to call
// concurrently from many processes — MkdirAll tolerates losing every
// race, and the orphan sweep is age-gated so it can never remove a
// staging file another live process is still writing.
func Open(root string) (*Store, error) {
	return OpenStore(root, StoreOptions{})
}

// OpenStore is Open with explicit options.
func OpenStore(root string, opts StoreOptions) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("cluster: state dir is required")
	}
	ioRetry := opts.Retry
	if ioRetry.Attempts == 0 {
		ioRetry = retry.Policy{Attempts: 4, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
	}
	s := &Store{root: root, fs: faultfs.Default(opts.FS), ioRetry: ioRetry}
	for _, d := range storeLayout {
		if err := s.fs.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			return nil, fmt.Errorf("cluster: create state dir: %w", err)
		}
	}
	age := opts.OrphanAge
	if age == 0 {
		age = defaultOrphanAge
	}
	if age > 0 {
		// Best-effort: a sweep failure must not fail Open — the orphans
		// cost disk space, not correctness.
		if n, err := s.SweepOrphans(age); err == nil && n > 0 {
			// No logger here by design; the store is process-shared state,
			// not a service. Callers see the count via SweepOrphans.
			_ = n
		}
	}
	return s, nil
}

// Root returns the state directory path.
func (s *Store) Root() string { return s.root }

func (s *Store) tmpDir() string     { return filepath.Join(s.root, "tmp") }
func (s *Store) pendingDir() string { return filepath.Join(s.root, "tasks", "pending") }
func (s *Store) claimedDir() string { return filepath.Join(s.root, "tasks", "claimed") }
func (s *Store) doneDir() string    { return filepath.Join(s.root, "tasks", "done") }
func (s *Store) nodesDir() string   { return filepath.Join(s.root, "nodes") }

// SweepOrphans removes tmp/put-* staging files older than olderThan (0
// removes all of them) and returns how many went. A put-* file exists
// only between CreateTemp and the commit rename; one that outlives its
// writer is a crash leftover no future operation will ever touch.
func (s *Store) SweepOrphans(olderThan time.Duration) (int, error) {
	entries, err := s.fs.ReadDir(s.tmpDir())
	if err != nil {
		return 0, fmt.Errorf("cluster: scan tmp: %w", err)
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "put-") {
			continue
		}
		path := filepath.Join(s.tmpDir(), e.Name())
		if olderThan > 0 {
			info, err := s.fs.Stat(path)
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
		}
		if s.fs.Remove(path) == nil {
			removed++
		}
	}
	return removed, nil
}

// hexDigest reports whether d looks like a hex SHA-256 — the only names
// the CAS and the task queue accept. Everything read back from shared
// task files goes through this check, so a corrupted or hostile task
// spec can never escape the state dir via path traversal.
func hexDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// CASPath returns where the blob with the given hex SHA-256 digest lives
// (whether or not it exists yet).
func (s *Store) CASPath(digest string) string {
	return filepath.Join(s.root, "cas", digest)
}

// HasBlob reports whether the CAS already holds digest.
func (s *Store) HasBlob(digest string) bool {
	if !hexDigest(digest) {
		return false
	}
	_, err := s.fs.Stat(s.CASPath(digest))
	return err == nil
}

// writeAtomic writes into the store via a temp file in <dir>/tmp
// through faultfs.WriteAtomic's crash-durable commit. Transient failures
// retry the whole protocol with a fresh temp file — which is why write
// must be replayable (every caller either writes from memory or re-seeks
// its source). A failed attempt's temp file is removed immediately;
// what a crash strands, the startup sweep reclaims.
func (s *Store) writeAtomic(path string, write func(io.Writer) error) error {
	// Store writes retry on a background context on purpose: the store
	// is process-shared durable state and a commit in flight must not be
	// abandoned because one caller's request context expired (attempts
	// are bounded, so nothing can hang on it).
	err := s.ioRetry.Do(context.Background(), func() error {
		return faultfs.WriteAtomic(s.fs, s.tmpDir(), "put-*", path, write)
	})
	if err != nil {
		return fmt.Errorf("cluster: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// PutFile stores the file at path into the CAS and returns its hex
// SHA-256 digest. An already-present blob is not rewritten — that is the
// whole point of content addressing: identical uploads across nodes hit
// the same blob once.
func (s *Store) PutFile(path string) (string, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return "", fmt.Errorf("cluster: open %s: %w", path, err)
	}
	defer f.Close()
	return s.putReplayable(path, func(w io.Writer) error {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		_, err := io.Copy(w, f)
		return err
	})
}

// putReplayable stores the bytes write produces into the CAS under their
// digest. write runs once to hash and again for each commit attempt, so
// it must replay its source from the top every time (re-seek, never
// continue). name labels errors.
func (s *Store) putReplayable(name string, write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", fmt.Errorf("cluster: hash %s: %w", name, err)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if s.HasBlob(digest) {
		return digest, nil
	}
	if err := s.writeAtomic(s.CASPath(digest), write); err != nil {
		return "", err
	}
	return digest, nil
}

// PutBytes stores b into the CAS and returns its hex SHA-256 digest.
func (s *Store) PutBytes(b []byte) (string, error) {
	return s.putReplayable("blob", func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// spoolPath is where the float64 spool of the upload whose CSV hashes
// to digest lives. The spool is keyed on the CSV's digest, not its own,
// so the digest that names a job's upload in cache keys and task IDs
// names its spool too.
func (s *Store) spoolPath(digest string) string {
	return s.CASPath(digest) + ".f64"
}

// HasSpool reports whether the CAS holds the spool of the upload whose
// CSV hashes to digest.
func (s *Store) HasSpool(digest string) bool {
	if !hexDigest(digest) {
		return false
	}
	_, err := s.fs.Stat(s.spoolPath(digest))
	return err == nil
}

// PutSpool commits the float64 spool of the upload whose CSV hashes to
// digest, as write produces it. write runs once per commit attempt and
// must replay its source from the top; an error it returns aborts the
// commit and leaves no spool behind. The store never sees the CSV, so
// write must check that it hashes to digest; callers check HasSpool
// first, since a spool once committed never changes.
func (s *Store) PutSpool(digest string, write func(io.Writer) error) error {
	if !hexDigest(digest) {
		return fmt.Errorf("cluster: spool digest %q is not a hex SHA-256", digest)
	}
	return s.writeAtomic(s.spoolPath(digest), write)
}

// OpenSpool opens the spool of the upload whose CSV hashes to digest
// for reading, through the store's filesystem.
func (s *Store) OpenSpool(digest string) (io.ReadCloser, error) {
	if !hexDigest(digest) {
		return nil, fmt.Errorf("cluster: spool digest %q is not a hex SHA-256", digest)
	}
	return s.fs.Open(s.spoolPath(digest))
}

// resultPath maps an arbitrary cache key onto its file: the key is
// hashed so it needs no escaping and cannot traverse paths.
func (s *Store) resultPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.root, "results", hex.EncodeToString(sum[:]))
}

// CachedResult returns the shared result cache entry for key, if any.
// This is the cross-node analogue of the server's in-process assessment
// LRU: entries are the exact response bytes, keyed on the same
// sweep.CacheKey string, so any node's computation serves every node.
// A read fault reads as a miss — the cache is an accelerator, and the
// caller recomputes identical bytes.
func (s *Store) CachedResult(key string) ([]byte, bool) {
	body, err := s.fs.ReadFile(s.resultPath(key))
	if err != nil {
		return nil, false
	}
	return body, true
}

// PutCachedResult stores body as the shared result for key.
func (s *Store) PutCachedResult(key string, body []byte) error {
	return s.writeAtomic(s.resultPath(key), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// Heartbeat is one node's liveness record plus its /v1/status gauges. The
// Time field is the liveness signal: a node is alive iff its heartbeat
// file parses and Time is within the lease TTL of now.
type Heartbeat struct {
	Node         string    `json:"node"`
	Role         string    `json:"role"`
	Time         time.Time `json:"time"`
	TasksClaimed int64     `json:"tasks_claimed"`
	TasksDone    int64     `json:"tasks_done"`
	TasksFailed  int64     `json:"tasks_failed"`
}

// WriteHeartbeat atomically rewrites the node's heartbeat file.
func (s *Store) WriteHeartbeat(hb Heartbeat) error {
	if err := validNodeID(hb.Node); err != nil {
		return err
	}
	body, err := json.Marshal(hb)
	if err != nil {
		return fmt.Errorf("cluster: encode heartbeat: %w", err)
	}
	return s.writeAtomic(filepath.Join(s.nodesDir(), hb.Node+".json"), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// nodeAlive reports whether node's heartbeat file parses to a timestamp
// within ttl of now. A missing, unreadable or corrupt heartbeat is a
// dead node — that is what lets the fault harness kill a worker by
// corrupting its heartbeat bytes.
func (s *Store) nodeAlive(node string, ttl time.Duration, now time.Time) bool {
	body, err := s.fs.ReadFile(filepath.Join(s.nodesDir(), node+".json"))
	if err != nil {
		return false
	}
	var hb Heartbeat
	if err := json.Unmarshal(body, &hb); err != nil {
		return false
	}
	return now.Sub(hb.Time) <= ttl
}

// Nodes returns every parseable heartbeat, sorted by ReadDir's name
// order. Corrupt heartbeat files are skipped — /v1/status reports what can
// be known, and the reclaim path already treats those nodes as dead.
func (s *Store) Nodes() ([]Heartbeat, error) {
	entries, err := s.fs.ReadDir(s.nodesDir())
	if err != nil {
		return nil, fmt.Errorf("cluster: scan nodes: %w", err)
	}
	var out []Heartbeat
	for _, e := range entries {
		body, err := s.fs.ReadFile(filepath.Join(s.nodesDir(), e.Name()))
		if err != nil {
			continue
		}
		var hb Heartbeat
		if err := json.Unmarshal(body, &hb); err != nil {
			continue
		}
		out = append(out, hb)
	}
	return out, nil
}

// QueueStats counts the task files in each lifecycle directory — the
// /v1/status cluster gauges.
func (s *Store) QueueStats() (pending, claimed, done int) {
	count := func(dir string) int {
		entries, err := s.fs.ReadDir(dir)
		if err != nil {
			return 0
		}
		return len(entries)
	}
	return count(s.pendingDir()), count(s.claimedDir()), count(s.doneDir())
}

// KindStats counts one task kind's presence in each lifecycle
// directory — the per-kind /v1/status gauges.
type KindStats struct {
	Pending int `json:"pending"`
	Claimed int `json:"claimed"`
	Done    int `json:"done"`
}

// QueueStatsByKind buckets the task files of every lifecycle directory
// by task kind. It reads each file to learn its kind (pending/claimed
// files carry the task JSON, done files the completion envelope), so it
// is a status-endpoint operation, not a hot-path one. Unreadable or
// unparseable files land in the "" bucket, which is dropped — the
// aggregate QueueStats still counts them.
func (s *Store) QueueStatsByKind() map[string]KindStats {
	out := make(map[string]KindStats)
	scan := func(dir string, kindOf func(body []byte) string, add func(st *KindStats)) {
		entries, err := s.fs.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			body, err := s.fs.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			kind := kindOf(body)
			if kind == "" {
				continue
			}
			st := out[kind]
			add(&st)
			out[kind] = st
		}
	}
	taskKind := func(body []byte) string {
		var t Task
		if json.Unmarshal(body, &t) != nil {
			return ""
		}
		return t.Type
	}
	scan(s.pendingDir(), taskKind, func(st *KindStats) { st.Pending++ })
	scan(s.claimedDir(), taskKind, func(st *KindStats) { st.Claimed++ })
	scan(s.doneDir(), func(body []byte) string {
		var df doneFile
		if json.Unmarshal(body, &df) != nil {
			return ""
		}
		return df.Type
	}, func(st *KindStats) { st.Done++ })
	return out
}

// validNodeID restricts node identifiers to filename-safe bytes; node
// ids become path components of heartbeat and claim files.
func validNodeID(node string) error {
	if node == "" {
		return fmt.Errorf("cluster: node id is required")
	}
	for _, c := range node {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("cluster: node id %q contains %q (want [A-Za-z0-9._-])", node, c)
		}
	}
	return nil
}
