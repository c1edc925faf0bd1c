package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"

	"sacs/internal/population"
)

// Write atomically writes a snapshot file: encode to a temporary file in
// the target directory, fsync, then rename over path. A crash mid-write
// therefore never leaves a half-written file under the final name — the
// invariant that makes "resume from Latest" safe without a recovery scan.
// Writeback of each segment's whole pages starts as soon as it is written
// (see writeback), so the fsync waits for the tail rather than the file.
func Write(path string, s *population.Snapshot, meta map[string]string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	segs, n, err := encodePayload(s, meta)
	if err == nil {
		err = writeFramed(&writeback{f: tmp}, segs, n)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Fsync the directory so the rename itself survives a power failure;
	// without this, "resume from Latest" could come up pointing at an
	// older snapshot than the one we just acknowledged writing. Some
	// filesystems refuse to sync directories — degrade to best effort
	// there rather than failing a checkpoint that did reach the disk.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// pageMask masks a file offset down to the start of its page.
var pageMask = ^int64(os.Getpagesize() - 1)

// writeback writes to a fresh file f and, after each write, starts the
// kernel writing back every page it has completed since (startWriteback).
// Only whole pages are started: a page still being filled is never under
// writeback when the next write lands in it, which on devices that need
// stable pages would make that write wait. Errors from startWriteback are
// ignored; the fsync that follows is the durability point either way.
type writeback struct {
	f       *os.File
	end     int64 // bytes written
	started int64 // bytes whose writeback has been started
}

func (w *writeback) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.end += int64(n)
	if full := w.end & pageMask; full > w.started {
		_ = startWriteback(w.f, w.started, full-w.started)
		w.started = full
	}
	return n, err
}

// Read decodes the snapshot file at path. Corruption (truncation, bit
// flips, wrong magic or version) is reported as an error wrapping
// ErrCorrupt; plain I/O failure is returned as-is. The file's size bounds
// the payload, so it is read into one buffer of its exact length, and a
// header claiming more than the file holds fails before any is allocated.
func Read(path string) (*population.Snapshot, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := int64(-1)
	if fi.Mode().IsRegular() {
		size = fi.Size()
	}
	s, meta, err := decode(f, size)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return s, meta, nil
}
