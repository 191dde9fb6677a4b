package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"randpriv/internal/faultfs"
)

// upload is a request body spooled to a temporary file. Spooling is what
// keeps the service out-of-core: the two-pass attacks and the correlated
// scheme need to re-read their input (stream.Source.Reset), which an
// HTTP body cannot do, so the body is copied once to disk — through a
// SHA-256 digest, never through memory — and every pass streams from the
// file in fixed-size chunks.
type upload struct {
	path   string
	digest string // hex SHA-256 of the raw body bytes
	fs     faultfs.FS
}

// spoolBody copies r to a temp file in dir, hashing as it goes. The
// caller owns the returned upload and must Remove it. A failed copy —
// including an injected storage fault — removes the partial file and
// surfaces a clean error before any response byte is written; there is
// no retry because r is a one-shot network body.
func spoolBody(fsys faultfs.FS, dir string, r io.Reader) (*upload, error) {
	fsys = faultfs.Default(fsys)
	f, err := fsys.CreateTemp(dir, "randprivd-*.csv")
	if err != nil {
		return nil, fmt.Errorf("server: spool upload: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(io.MultiWriter(f, h), r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(f.Name())
		return nil, err
	}
	return &upload{
		path:   f.Name(),
		digest: hex.EncodeToString(h.Sum(nil)),
		fs:     fsys,
	}, nil
}

// Remove deletes the spool file.
func (u *upload) Remove() {
	if u != nil {
		faultfs.Default(u.fs).Remove(u.path)
	}
}

// ctxReader bounds a body read by the request deadline: each Read
// checks the context first, so a client trickling its upload cannot
// hold a spooling goroutine past the per-request timeout. Its chunk
// stream analogue is stream.ContextSource, which the compute paths wrap
// around every source.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
