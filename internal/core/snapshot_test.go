package core

import (
	"testing"

	"sacs/internal/codec"
	"sacs/internal/knowledge"
)

// TestMinStateSizes: the minimum sizes the state readers bound their
// counts by must be what AppendState writes for the emptiest element — an
// agent with no store entries and none of the optional parts, and a
// predictor with no stimulus, strategy or state.
func TestMinStateSizes(t *testing.T) {
	a := New(Config{Name: "a", Caps: Caps(LevelStimulus), Store: knowledge.NewStore(0.3, 0)})
	var e codec.Encoder
	if err := a.AppendState(&e); err != nil {
		t.Fatal(err)
	}
	if got := e.Len() - len("a"); got != MinStateSize {
		t.Errorf("an empty agent encodes to %d bytes, MinStateSize says %d", got, MinStateSize)
	}
	var p codec.Encoder
	p.Str("")
	p.Str("")
	p.F64s(nil)
	p.F64s(nil)
	if p.Len() != minPredictorSize {
		t.Errorf("an empty predictor encodes to %d bytes, minPredictorSize says %d", p.Len(), minPredictorSize)
	}
}
