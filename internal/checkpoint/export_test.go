package checkpoint

import (
	"sacs/internal/population"
)

// Hooks for the external tests (package checkpoint_test), which may import
// populations that themselves import this package.
var (
	DecodePayload   = decodePayload
	WithHeader      = withHeader
	LyingEntryCount = lyingEntryCount
	Synthetic       = syntheticSnapshot
	CodecConfig     = testConfig
)

// EncodePayload is the snapshot payload the framed encoding carries, or
// nil when the snapshot cannot be encoded.
func EncodePayload(s *population.Snapshot, meta map[string]string) []byte {
	b, err := EncodeBytes(s, meta)
	if err != nil {
		return nil
	}
	return b[headerLen:]
}
