package cdnjson

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplayCLISLOGate builds jsongen and jsonreplay and drives the SLO
// gate both ways: a healthy in-process edge passes a loose SLO (exit
// 0), and an edge that stalls every request violates "p99<50ms" (exit
// 3) — with the report showing the violation came from the intended-
// start distribution.
func TestReplayCLISLOGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := t.TempDir()
	for _, tool := range []string{"jsongen", "jsonreplay"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	data := filepath.Join(t.TempDir(), "stream.tsv.gz")
	out, err := exec.Command(filepath.Join(bin, "jsongen"), "-preset", "short",
		"-scale", "0.001", "-seed", "11", "-o", data).CombinedOutput()
	if err != nil {
		t.Fatalf("jsongen: %v\n%s", err, out)
	}

	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer healthy.Close()

	// A stalled edge: every request takes ~120ms, so at 200 req/s the
	// intended-start tail explodes far past 50ms.
	var stalledHits atomic.Int64
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalledHits.Add(1)
		time.Sleep(120 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer stalled.Close()

	replay := func(target, slo, report string) (string, int) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "jsonreplay"), "-i", data,
			"-target", target, "-rate", "200", "-duration", "1500ms",
			"-warmup", "200ms", "-c", "4", "-progress", "0",
			"-slo", slo, "-out", report)
		out, err := cmd.CombinedOutput()
		code := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			code = exitErr.ExitCode()
		} else if err != nil {
			t.Fatalf("jsonreplay: %v\n%s", err, out)
		}
		return string(out), code
	}

	okReport := filepath.Join(t.TempDir(), "replay-ok.json")
	if out, code := replay(healthy.URL, "p99<5s,err<1%", okReport); code != 0 {
		t.Fatalf("healthy run exited %d:\n%s", code, out)
	}
	if fi, err := os.Stat(okReport); err != nil || fi.Size() == 0 {
		t.Fatalf("replay report not written: %v", err)
	}

	badReport := filepath.Join(t.TempDir(), "replay-bad.json")
	out2, code := replay(stalled.URL, "p99<50ms", badReport)
	if code != 3 {
		t.Fatalf("stalled run exited %d, want 3 (SLO violation):\n%s", code, out2)
	}
	if !strings.Contains(out2, "SLO p99<50ms violated") {
		t.Errorf("violation message missing:\n%s", out2)
	}
	if stalledHits.Load() == 0 {
		t.Error("stalled edge never hit")
	}

	// Usage and parse errors exit 2, distinct from the SLO gate.
	cmd := exec.Command(filepath.Join(bin, "jsonreplay"), "-i", data,
		"-target", healthy.URL, "-slo", "p99<<1ms")
	if err := cmd.Run(); err == nil {
		t.Error("bad SLO expression accepted")
	} else if ee := new(exec.ExitError); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("bad SLO expression: %v, want exit 2", err)
	}
}
