package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation pins the startup rejection of nonsense flag values
// — and, just as deliberately, the negative values that are documented
// features and must stay accepted (they only fail later for unrelated
// reasons like a missing cluster dir, never for the sign).
func TestFlagValidation(t *testing.T) {
	// A -spool, -jobs-dir or -cluster-dir under a regular file cannot be
	// created. The unusable -addr fails a run that got past the
	// directories instead of serving.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	badSpool := filepath.Join(file, "spool")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero timeout", []string{"-timeout", "0s"}, "-timeout must be positive"},
		{"negative timeout", []string{"-timeout", "-5s"}, "-timeout must be positive"},
		{"negative queue", []string{"-queue", "-1"}, "-queue must be >= 0"},
		{"zero job ttl", []string{"-job-ttl", "0s"}, "-job-ttl must be nonzero"},
		{"bad role", []string{"-role", "observer"}, "unknown -role"},
		{"worker without cluster dir", []string{"-role", "worker"}, "-role worker requires -cluster-dir"},
		{"worker with negative claim loops", []string{"-role", "worker", "-cluster-dir", t.TempDir(), "-cluster-workers", "-1"}, "-cluster-workers must be >= 0 for -role worker"},
		{"spool under a regular file", []string{"-addr", "no-port", "-jobs-dir", t.TempDir(), "-spool", badSpool}, "-spool"},
		{"worker spool under a regular file", []string{"-role", "worker", "-cluster-dir", t.TempDir(), "-addr", "no-port", "-spool", badSpool}, "-spool"},
		{"jobs dir under a regular file", []string{"-addr", "no-port", "-jobs-dir", filepath.Join(file, "jobs")}, "-jobs-dir: "},
		{"cluster dir under a regular file", []string{"-addr", "no-port", "-jobs-dir", t.TempDir(), "-cluster-dir", filepath.Join(file, "c")}, "-cluster-dir: "},
		{"worker cluster dir under a regular file", []string{"-role", "worker", "-addr", "no-port", "-cluster-dir", filepath.Join(file, "c")}, "-cluster-dir: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
