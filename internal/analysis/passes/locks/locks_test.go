package locks_test

import (
	"testing"

	"bitdew/internal/analysis/analysistest"
	"bitdew/internal/analysis/passes/locks"
)

// The held-lock half: blocking calls under a lock.
func TestLocksHeld(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture(t), locks.Analyzer, "lockheld")
}

// The order half: locka contributes one direction of the cross-package
// cycle via its LockEdges package fact; the lockorder fixture closes it and
// carries the report.
func TestLocksOrder(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture(t), locks.Analyzer, "locka", "lockorder")
}
