//go:build !linux || arm

package checkpoint

import "os"

// startWriteback is a no-op where sync_file_range is not available: the
// fsync at the end of Write then writes every page back itself.
func startWriteback(*os.File, int64, int64) error { return nil }
