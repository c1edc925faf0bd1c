//go:build linux && !arm

package checkpoint

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE, which package syscall does
// not export: start writeback of the range's dirty pages, wait for none.
const syncFileRangeWrite = 0x2

// startWriteback asks the kernel to start writing f's bytes [off, off+n)
// back to disk and returns at once (sync_file_range). It goes through
// SyscallConn rather than Fd, which would switch f to blocking mode. The
// call promises nothing about durability — the fsync after it does — so
// callers ignore its error.
func startWriteback(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	}); err != nil {
		return err
	}
	return serr
}
