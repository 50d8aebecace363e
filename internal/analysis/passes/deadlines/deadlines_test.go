package deadlines_test

import (
	"testing"

	"bitdew/internal/analysis/analysistest"
	"bitdew/internal/analysis/passes/deadlines"
)

// The dial-site half: every rpc dial arms a call timeout.
func TestDeadlinesDialSites(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture(t), deadlines.Analyzer, "rpcdeadline")
}

// The loop half. The helper package is listed first so its BlocksOnRPC
// facts serialize before the importing fixture is analyzed, exercising
// cross-package propagation.
func TestDeadlinesRetryLoops(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture(t), deadlines.Analyzer, "deadlinehelp", "deadlineprop")
}
