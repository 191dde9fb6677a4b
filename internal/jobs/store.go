// On-disk layout of one job:
//
//	<dir>/<id>/job.json    — jobRecord: spec + lifecycle metadata
//	<dir>/<id>/upload.csv  — the spooled request body, byte-exact
//	<dir>/<id>/result.json — the runner's output (present iff done)
//
// job.json is the recovery unit: it is rewritten with tmp+fsync+rename
// (and a parent-directory sync) on every state transition, so a crash —
// of the process or of the storage underneath it — leaves either the
// old or the new record durably on disk, never a torn one. Every
// filesystem touch goes through the manager's faultfs.FS handle, which
// is what lets the chaos suite replay seeded storage faults against
// this exact code, and every transient-classifiable failure is retried
// under the manager's backoff policy before it is surfaced.

package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"randpriv/internal/faultfs"
)

// jobRecord is the persisted form of a job. Spec is stored as a JSON
// *string*, not an embedded object: re-marshalling an embedded
// json.RawMessage re-indents it, and the recovery contract needs the
// spec bytes back exactly as submitted (the runner's determinism is
// stated over the byte-identical (spec, upload) pair).
type jobRecord struct {
	ID       string    `json:"id"`
	Spec     string    `json:"spec"`
	Digest   string    `json:"digest"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Progress Progress  `json:"progress"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
}

const (
	jobFileName = "job.json"
	// tmpPrefix names the atomic-write temp files; the recovery sweep
	// removes any that a crash stranded.
	tmpPrefix = ".tmp-"
)

// writeJobFile persists the job's current state atomically. The write
// happens under j.mu — the same lock removeFiles deletes the dir under —
// so a persist can never interleave with a removal and recreate job state
// inside a half-deleted directory; once the job is removed, persisting it
// is a no-op.
func (m *Manager) writeJobFile(j *job) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.removed {
		return nil
	}
	rec := jobRecord{
		ID:       j.id,
		Spec:     string(j.spec),
		Digest:   j.digest,
		State:    j.state,
		Error:    j.err,
		Progress: j.prog,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode job record: %w", err)
	}
	return m.writeFileAtomic(filepath.Join(j.dir, jobFileName), append(body, '\n'))
}

// readJobFile loads a job from its directory. The directory name is the
// source of truth for the id (a copied state dir keeps working); a
// mismatching record id is corruption and is rejected.
func (m *Manager) readJobFile(dir string) (*job, error) {
	var body []byte
	err := m.ioRetry.Do(context.Background(), func() error {
		var rerr error
		body, rerr = m.fs.ReadFile(filepath.Join(dir, jobFileName))
		return rerr
	})
	if err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return nil, fmt.Errorf("jobs: decode job record: %w", err)
	}
	id := filepath.Base(dir)
	if rec.ID != id {
		return nil, fmt.Errorf("jobs: record id %q does not match directory %q", rec.ID, id)
	}
	switch rec.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		return nil, fmt.Errorf("jobs: unknown state %q", rec.State)
	}
	j := &job{
		id:       id,
		dir:      dir,
		created:  rec.Created,
		doneCh:   make(chan struct{}),
		spec:     json.RawMessage(rec.Spec),
		digest:   rec.Digest,
		state:    rec.State,
		err:      rec.Error,
		started:  rec.Started,
		finished: rec.Finished,
	}
	j.prog = rec.Progress
	return j, nil
}

// spoolUpload copies body to path, fsync-free (the durability unit is the
// job record; a torn upload from a crash mid-Submit is an orphan dir the
// next recovery skips, because job.json was never written). No retry
// either: body is a one-shot reader, so a failed copy cannot replay.
func (m *Manager) spoolUpload(path string, body io.Reader) error {
	f, err := m.fs.Create(path)
	if err != nil {
		return fmt.Errorf("jobs: spool upload: %w", err)
	}
	_, err = io.Copy(f, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		m.fs.Remove(path)
		return fmt.Errorf("jobs: spool upload: %w", err)
	}
	return nil
}

// adoptFile moves src to dst, preferring a rename (no byte copy); when
// the two live on different filesystems it falls back to copy-and-remove.
// On success src is gone; on failure the caller keeps whatever remains.
func (m *Manager) adoptFile(dst, src string) error {
	if err := m.fs.Rename(src, dst); err == nil {
		return nil
	}
	f, err := m.fs.Open(src)
	if err != nil {
		return fmt.Errorf("jobs: adopt upload: %w", err)
	}
	defer f.Close()
	if err := m.spoolUpload(dst, f); err != nil {
		return err
	}
	m.fs.Remove(src)
	return nil
}

// writeFileAtomic writes body to path via a same-directory temp file
// through faultfs.WriteAtomic's crash-durable commit. Transient failures
// retry the whole protocol with a fresh temp file; the failed attempt's
// temp is removed immediately (and the startup sweep catches what a
// crash strands).
func (m *Manager) writeFileAtomic(path string, body []byte) error {
	// Persistence retries run on a background context on purpose: a job
	// finishing while the manager closes must still commit its terminal
	// record (the attempts are bounded, so shutdown cannot hang on it).
	err := m.ioRetry.Do(context.Background(), func() error {
		return faultfs.WriteAtomic(m.fs, filepath.Dir(path), tmpPrefix+"*", path, func(w io.Writer) error {
			_, err := w.Write(body)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("jobs: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// sweepTempFiles removes stranded atomic-write temp files under dir
// (one level deep — temps live next to the job.json they were meant to
// replace). Only this manager writes the state dir, so any temp present
// at startup is an orphan from a crashed predecessor by definition. It
// returns how many were removed.
func (m *Manager) sweepTempFiles(dir string) int {
	removed := 0
	entries, err := m.fs.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case !e.IsDir() && strings.HasPrefix(name, tmpPrefix):
			if m.fs.Remove(filepath.Join(dir, name)) == nil {
				removed++
			}
		case e.IsDir():
			sub, err := m.fs.ReadDir(filepath.Join(dir, name))
			if err != nil {
				continue
			}
			for _, se := range sub {
				if !se.IsDir() && strings.HasPrefix(se.Name(), tmpPrefix) {
					if m.fs.Remove(filepath.Join(dir, name, se.Name())) == nil {
						removed++
					}
				}
			}
		}
	}
	return removed
}
