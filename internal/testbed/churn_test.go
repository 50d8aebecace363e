package testbed

import "testing"

// TestServiceChurn is the crash-restart acceptance scenario: all four D*
// services are killed and restarted (twice) from --state-dir under a BLAST
// wave; no registered data, locators, bytes or placements may be lost, and
// the delta-syncing workers must reconverge through the full-resync
// fallback.
func TestServiceChurn(t *testing.T) {
	report, err := RunServiceChurn(ChurnConfig{
		Workers:  3,
		Tasks:    8,
		Restarts: 2,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", report.Restarts)
	}
	if report.DataSurvived != 9 || report.LocatorsSurvived != 9 {
		t.Fatalf("survival: %d data, %d locators, want 9/9", report.DataSurvived, report.LocatorsSurvived)
	}
	if report.RecoveryTime <= 0 {
		t.Fatalf("recovery time = %v", report.RecoveryTime)
	}
	t.Logf("restart-to-reconverged: %v (%d workers, %d tasks)", report.RecoveryTime, report.Workers, report.Tasks)
}

func TestServiceChurnNeedsStateDir(t *testing.T) {
	if _, err := RunServiceChurn(ChurnConfig{}); err == nil {
		t.Fatal("churn without a StateDir succeeded")
	}
}
