package cdnjson

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

// TestCLIPipeline builds the tools a user chains and drives the workflow
// through their file formats: generate a dataset, then run jsonrepro's
// §4 and §5 exhibits and jsonchar's anomaly scan over it. It then
// converts the dataset to TSV, appends garbage lines, and checks that
// every run quarantines them under the default error budget, and that
// jsonchar anomaly fails on a budget below their share.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline test builds binaries; skipped in -short")
	}
	bin, work := t.TempDir(), t.TempDir()
	for _, tool := range []string{"jsongen", "jsonchar", "jsonconvert", "jsonrepro"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	// Tools run in a temporary directory, so that run manifests land there.
	exe := func(tool string, args ...string) (stdout, stderr string, err error) {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Dir = work
		var o, e strings.Builder
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	run := func(tool string, args ...string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := exe(tool, args...)
		if err != nil {
			t.Fatalf("%s %v: %v\n%s%s", tool, args, err, stdout, stderr)
		}
		return stdout, stderr
	}

	data := filepath.Join(t.TempDir(), "pattern.cdnc")
	run("jsongen", "-preset", "long", "-duration", "45m", "-target", "30000",
		"-domains", "20", "-seed", "5", "-o", data)
	if fi, err := os.Stat(data); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}

	// Each run over a file, and lines its report holds exactly once.
	analyses := []struct {
		tool string
		args []string
		want []string
	}{
		{"jsonrepro", []string{"-only", "table2,fig3,fig4"}, []string{
			"== Table 2 ==", "Figure 2: JSON traffic taxonomy", "GET (download) share",
			"== Figure 4 and §4 cacheability =="}},
		{"jsonchar", []string{"anomaly", "-top", "3"}, []string{"scanned"}},
		{"jsonrepro", []string{"-only", "fig5,fig6,table3,prefetch", "-j", "1"}, []string{
			"== Figure 5 and §5.1 periodicity ==", "== Figure 6 ==",
			"== Table 3 and §5.2 prediction ==", "== Prefetch simulation (§5.2 implication) =="}},
	}
	// input spells the file flag of each tool.
	input := map[string]string{"jsonchar": "-i", "jsonrepro": "-records"}
	check := func(tool string, args []string, out string, want []string) {
		t.Helper()
		for _, w := range want {
			if n := strings.Count(out, w); n != 1 {
				t.Errorf("%s %v: %q appears %d times, want once:\n%.600s", tool, args, w, n, out)
			}
		}
	}
	for _, a := range analyses {
		args := append(append([]string{}, a.args...), input[a.tool], data)
		out, _ := run(a.tool, args...)
		check(a.tool, args, out, a.want)
	}

	// Usage errors: a bad value, a positional argument, and the retired
	// bare characterization.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"anomaly", "-i", data, "-top", "-1"}, "-top must be >= 0"},
		{[]string{"anomaly", "-i", data, "period"}, "jsonrepro -records"},
		{[]string{"period", "-i", data}, "jsonrepro -records"},
		{[]string{"-i", data}, "jsonrepro -records FILE -only table2,fig3,fig4"},
	} {
		_, stderr, err := exe("jsonchar", c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, c.want) {
			t.Errorf("jsonchar %v: %v, want a usage error (exit 2) naming %q\n%s", c.args, err, c.want, stderr)
		}
	}

	// The retired binary stream is refused, naming its replacement:
	// jsongen will not write one, and jsonrepro will not read one even
	// under a text name.
	stream := filepath.Join(t.TempDir(), "old.tsv")
	f, err := os.Create(stream)
	if err != nil {
		t.Fatal(err)
	}
	w := logfmt.NewBinaryWriter(f)
	rec := logfmt.Record{Time: time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC), Method: "GET",
		URL: "https://api.example.com/v1", MIMEType: "application/json", Status: 200, Bytes: 512}
	for i := 0; i < 100; i++ {
		w.Write(&rec)
	}
	if err := errors.Join(w.Close(), f.Close()); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{
		{"jsongen", "-target", "100", "-o", filepath.Join(t.TempDir(), "x.cdnb")},
		{"jsonrepro", "-records", stream, "-only", "table2,fig3,fig4", "-manifest-dir", ""},
	} {
		if _, stderr, err := exe(c[0], c[1:]...); err == nil || !strings.Contains(stderr, ".cdnc") {
			t.Errorf("%v on the retired binary stream: %v, want a failure naming .cdnc\n%s", c, err, stderr)
		}
	}

	// Transcode binary -> TSV with JSON filtering, then corrupt the tail:
	// five bad lines in ≈21 k records is 0.02 %.
	tsv := filepath.Join(t.TempDir(), "json.tsv")
	run("jsonconvert", "-i", data, "-o", tsv, "-json-only")
	f, err = os.OpenFile(tsv, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("not\ta\tlog\tline\n", 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range analyses {
		args := append(append([]string{}, a.args...), input[a.tool], tsv)
		out, stderr := run(a.tool, args...)
		check(a.tool, args, out, a.want)
		if !strings.Contains(stderr, "quarantined=5 ") || a.tool == "jsonchar" && !strings.Contains(stderr, "records quarantined") {
			t.Errorf("%s %v on corrupt input: no quarantine report on stderr:\n%s", a.tool, args, stderr)
		}
		if a.tool != "jsonchar" {
			continue
		}
		args = append(args, "-max-error-rate", "0.0001")
		if _, stderr, err := exe("jsonchar", args...); err == nil || !strings.Contains(stderr, "corrupt-record budget exceeded") {
			t.Errorf("jsonchar %v on corrupt input: %v, want the budget error\n%s", args, err, stderr)
		}
	}
}

// TestJSONReproSmoke builds cmd/jsonrepro and runs a two-exhibit subset:
// both sections print under their table titles and the run manifest's
// step ledger holds exactly those two, completed.
func TestJSONReproSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("jsonrepro smoke test builds a binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "jsonrepro")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/jsonrepro").CombinedOutput(); err != nil {
		t.Fatalf("building jsonrepro: %v\n%s", err, out)
	}
	dir := t.TempDir()
	cmd := exec.Command(bin, "-only", "fig1,table2", "-j", "1", "-scale", "0.0002", "-manifest-dir", dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("jsonrepro: %v\n%s\n%s", err, out, stderr.String())
	}
	titles := []string{"Figure 1", "Table 2"}
	for _, title := range titles {
		if !strings.Contains(string(out), "\n== "+title+" ==\n") {
			t.Errorf("output has no %q section:\n%s", title, out)
		}
	}

	files, _ := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if len(files) != 1 {
		t.Fatalf("manifests in %s = %v, want one", dir, files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Outcome != "completed" || len(man.Steps) != len(titles) {
		t.Fatalf("manifest outcome %q with steps %+v, want completed with %v", man.Outcome, man.Steps, titles)
	}
	for i, st := range man.Steps {
		if st.Name != titles[i] || st.Status != "completed" {
			t.Errorf("manifest step %d = %+v, want %q completed", i, st, titles[i])
		}
	}
}

// TestJSONReproRecordsDriveExhibits: with -records, the exhibits
// analyze the captured log, so the flags that shape the synthetic
// datasets cannot move them: -pattern-target the §5 ones, -scale the §4
// ones (streamed through their observers), Table 2's scale suffix
// included.
func TestJSONReproRecordsDriveExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("jsonrepro -records test builds binaries; skipped in -short")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/jsongen", "./cmd/jsonrepro").CombinedOutput(); err != nil {
		t.Fatalf("building: %v\n%s", err, out)
	}
	data := filepath.Join(t.TempDir(), "log.cdnc")
	if out, err := exec.Command(filepath.Join(bin, "jsongen"), "-preset", "long", "-duration", "30m",
		"-target", "12000", "-domains", "10", "-seed", "7", "-q", "-o", data).CombinedOutput(); err != nil {
		t.Fatalf("jsongen: %v\n%s", err, out)
	}
	for _, c := range []struct {
		only, flag string
		values     [2]string
	}{
		{"fig5,table3,prefetch", "-pattern-target", [2]string{"20000", "40000"}},
		{"table2,fig3,fig4", "-scale", [2]string{"0.5", "0.001"}},
	} {
		var reports []string
		for _, v := range c.values {
			cmd := exec.Command(filepath.Join(bin, "jsonrepro"), "-records", data, "-only", c.only,
				c.flag, v, "-x", "20", "-j", "1", "-manifest-dir", "")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("jsonrepro %s %s: %v\n%s", c.flag, v, err, stderr.String())
			}
			reports = append(reports, string(out))
		}
		if reports[0] != reports[1] {
			t.Errorf("-records report moved with %s:\n%s\n---\n%s", c.flag, reports[0], reports[1])
		}
	}
}

// TestLiveEdgeSmoke builds cmd/liveedge and runs its self-driven mode
// against a faulty origin with the characterization plane on: real
// sockets, real retries, and — in the run's closing outage — serve-stale
// answered from the cache's own entries.
func TestLiveEdgeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("liveedge smoke test builds a binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "liveedge")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/liveedge").CombinedOutput(); err != nil {
		t.Fatalf("building liveedge: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-fault-rate", "0.3", "-livechar", "-out-dir", t.TempDir())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("liveedge: %v\n%s\n%s", err, out, stderr.String())
	}
	m := regexp.MustCompile(`(\d+) stale serves`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no stale-serve count in output:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Errorf("0 stale serves: the outage act was not served from the cache\n%s", out)
	}
	for _, want := range []string{"edge cache hit ratio:", "live characterization", "edge_stale_serves_total"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONFleetSmoke builds cmd/liveedge and cmd/jsonfleet and runs a
// two-node fleet over real processes: the URL-file handshake publishes
// the front, one path through the front lands on one named node and is a
// cache hit the second time, /fleetz shows both members live, and SIGTERM
// exits 0 inside the drain window.
func TestJSONFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("jsonfleet smoke test builds binaries and spawns processes; skipped in -short")
	}
	dir := t.TempDir()
	for _, tool := range []string{"liveedge", "jsonfleet"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	urlFile := filepath.Join(dir, "fleet.url")
	cmd := exec.Command(filepath.Join(dir, "jsonfleet"), "-nodes", "2",
		"-node-bin", filepath.Join(dir, "liveedge"), "-url-file", urlFile, "-work", dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		// A failed run can leave the supervisor up: SIGTERM lets it reap
		// its nodes before it goes.
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
		}
	})

	urls, err := edge.AwaitURLFile(context.Background(), urlFile, 20*time.Second)
	if err != nil || len(urls) < 2 {
		t.Fatalf("URL-file handshake: %v %v\n%s", urls, err, stderr.String())
	}
	front, admin := urls[0], urls[1]
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", url, err, stderr.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	first, _ := get(front + "/stories")
	second, _ := get(front + "/stories")
	node := first.Header.Get("X-Fleet-Node")
	if first.StatusCode != 200 || second.StatusCode != 200 || node == "" || second.Header.Get("X-Fleet-Node") != node {
		t.Errorf("same path answered %d by %q, then %d by %q; want 200 from one named node",
			first.StatusCode, node, second.StatusCode, second.Header.Get("X-Fleet-Node"))
	}
	if got := second.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second GET X-Cache = %q (first %q), want HIT", got, first.Header.Get("X-Cache"))
	}

	var fleetz struct {
		Live    int               `json:"live"`
		Members []json.RawMessage `json:"members"`
	}
	if _, body := get(admin + "/fleetz"); json.Unmarshal(body, &fleetz) != nil || fleetz.Live != 2 || len(fleetz.Members) != 2 {
		t.Errorf("/fleetz = %s, want 2 live members", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("jsonfleet after SIGTERM: %v, want exit 0\n%s", waitErr, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Errorf("jsonfleet still running 10s after SIGTERM\n%s", stderr.String())
	}
}
