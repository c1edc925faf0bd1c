//go:build linux && !arm

package checkpoint

import (
	"errors"
	"os"
	"syscall"
	"testing"
)

// TestStartWritebackReportsESPIPE: on a pipe sync_file_range fails with
// ESPIPE, and startWriteback hands that back for its caller to ignore
// (TestWritebackIgnoresErrors) instead of swallowing or panicking.
func TestStartWritebackReportsESPIPE(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if err := startWriteback(w, 0, 4096); !errors.Is(err, syscall.ESPIPE) {
		t.Fatalf("startWriteback on a pipe: %v, want ESPIPE", err)
	}
}
