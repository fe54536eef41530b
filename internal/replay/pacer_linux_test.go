//go:build linux

package replay

import (
	"testing"
	"time"
)

// TestPacerPrecision: below a millisecond the pacer is late by a kernel
// wake-up, not by the runtime's one-millisecond park. The same 200 waits
// on time.After come back a median ≈0.6–0.9 ms late.
func TestPacerPrecision(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: needs an idle, uninstrumented process")
	}
	// The runtime's floor is structural and fails every attempt; a busy
	// machine is not, so one quiet attempt in three is proof enough.
	var p50 time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		late := lateness(t, new(pacer), 200, 300*time.Microsecond)
		t.Logf("lateness p50 %v p90 %v max %v", late[100], late[180], late[199])
		if p50 = late[100]; p50 < 300*time.Microsecond {
			return
		}
	}
	t.Errorf("p50 lateness %v, want < 300µs", p50)
}

// BenchmarkPacer reports how late a 300 µs wait — shorter than the
// runtime's timers can keep — comes back.
func BenchmarkPacer(b *testing.B) {
	late := lateness(b, new(pacer), b.N, 300*time.Microsecond)
	b.ReportMetric(float64(late[len(late)/2].Nanoseconds())/1e3, "p50-late-us")
	b.ReportMetric(float64(late[len(late)*9/10].Nanoseconds())/1e3, "p90-late-us")
}
