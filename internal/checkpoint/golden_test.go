package checkpoint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/experiments"
	"sacs/internal/population"
)

// goldenS2SHA256 pins the exact bytes EncodeBytes produces for a 256-agent
// S2 population at tick 20. The wire format is a durability contract:
// snapshot files written by one build must decode, and re-encode to the
// same bytes, under every later build. A writer optimisation that changes
// this digest changed the format.
const goldenS2SHA256 = "0ea4f344611fbd40b04d442633061934e108f63b023b5e02d1063eb0ae43e0f0"

func TestEncodeBytesGoldenS2(t *testing.T) {
	eng := population.New(experiments.S2Config(256, 16, 1, nil))
	eng.Run(20)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	b, err := checkpoint.EncodeBytes(snap, map[string]string{"workload": "s2", "id": "golden"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenS2SHA256 {
		t.Fatalf("EncodeBytes digest %s (%d bytes), want %s", got, len(b), goldenS2SHA256)
	}
}
