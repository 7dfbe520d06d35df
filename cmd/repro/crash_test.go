package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestCrashReportQuick pins the quick crash sweep's verdicts: every
// protected stack is clean at every crash point, and the legacy-device
// control violates at some point. Auditing only the image the simulated
// power failure leaves missed the control's violations at every quick
// instant; the sweep must see every admissible state.
func TestCrashReportQuick(t *testing.T) {
	out, rows := crashReport(experiments.Quick)
	t.Log("\n" + out)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, row := range rows {
		label, violations := row["case"].(string), row["violations"].(int)
		if strings.Contains(label, "EXPECTED to violate") {
			if violations == 0 {
				t.Errorf("%s: no crash point violated; the control does not bite", label)
			}
		} else if violations != 0 {
			t.Errorf("%s: %d/%d crash points violated", label, violations, row["trials"])
		}
	}
}
