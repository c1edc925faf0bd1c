package used

import (
	"testing"

	"orphanfix/internal/stray"
)

// A test import does not keep a package alive.
func TestUsed(t *testing.T) { stray.Help() }
