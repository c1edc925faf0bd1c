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
const goldenS2SHA256 = "81b1ec0318cdb5df0b7e0d88ecfce9e869c6800416dedcefedd1950ce6b7d8ff"

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
