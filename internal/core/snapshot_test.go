package core

import (
	"testing"

	"sacs/internal/codec"
)

// TestMinStateSizes: the minimum size the agent state reader bounds its
// predictor count by must be what AppendState writes for the emptiest
// predictor — one with no stimulus, strategy or state. (The stimulus size
// is pinned with the checkpoint payload's sizes.)
func TestMinStateSizes(t *testing.T) {
	var p codec.Encoder
	p.Str("")
	p.Str("")
	p.F64s(nil)
	p.F64s(nil)
	if p.Len() != minPredictorSize {
		t.Errorf("an empty predictor encodes to %d bytes, minPredictorSize says %d", p.Len(), minPredictorSize)
	}
}
