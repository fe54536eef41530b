package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// synthRecords generates a small synthetic stream deterministically.
func synthRecords(t testing.TB, n int) []logfmt.Record {
	t.Helper()
	cfg := synth.ShortTermConfig(7, 0.0005)
	var recs []logfmt.Record
	err := synth.Generate(cfg, func(r *logfmt.Record) error {
		if len(recs) >= n {
			return nil
		}
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < n {
		t.Fatalf("synth produced %d records, want %d", len(recs), n)
	}
	return recs[:n]
}

// encodeChunkFrames encodes recs one record per raw chunk, so that one
// corrupted payload loses exactly one record, and returns the container
// plus each chunk frame's [start, end) byte offsets.
func encodeChunkFrames(t testing.TB, recs []logfmt.Record) ([]byte, [][2]int) {
	t.Helper()
	data := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 1})
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	var rc logfmt.RawChunk
	var frames [][2]int
	for sc.Next(&rc) == nil {
		frames = append(frames, [2]int{int(rc.Offset), int(rc.Offset + rc.FrameLen())})
	}
	if len(frames) != len(recs) {
		t.Fatalf("%d chunks for %d records", len(frames), len(recs))
	}
	return data, frames
}

func encodeTSV(recs []logfmt.Record) []byte {
	var buf []byte
	for i := range recs {
		buf = logfmt.AppendTSV(buf, &recs[i])
	}
	return buf
}

func TestTolerantReaderTSV(t *testing.T) {
	recs := synthRecords(t, 300)
	lines := strings.SplitAfter(string(encodeTSV(recs)), "\n")
	// Corrupt every 50th line (6 of 300 = 2%).
	corrupt := 0
	for i := 0; i < len(lines)-1; i += 50 {
		lines[i] = "garbage line that is not TSV\n"
		corrupt++
	}
	stream := strings.Join(lines, "")

	var dead bytes.Buffer
	rd, err := logfmt.NewReader(strings.NewReader(stream), logfmt.FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	dl := NewDeadLetter(&dead)
	tr := NewTolerantReader(rd, Options{MaxErrorRate: 0.05, DeadLetter: dl})
	var got int
	if err := tr.ForEach(func(*logfmt.Record) error { got++; return nil }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	st := tr.Stats()
	if st.Quarantined != int64(corrupt) || dl.Count() != int64(corrupt) {
		t.Errorf("quarantined %d (dead letter %d), want %d",
			st.Quarantined, dl.Count(), corrupt)
	}
	if got != len(recs)-corrupt || st.Records != int64(got) {
		t.Errorf("recovered %d records (stats %d), want %d", got, st.Records, len(recs)-corrupt)
	}
	// Dead-letter entries are positional JSON lines.
	dl.Flush()
	sc := bufio.NewScanner(&dead)
	var entries []Quarantine
	for sc.Scan() {
		var q Quarantine
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("bad dead-letter line %q: %v", sc.Text(), err)
		}
		entries = append(entries, q)
	}
	if len(entries) != corrupt {
		t.Fatalf("%d dead-letter entries, want %d", len(entries), corrupt)
	}
	if e := entries[0]; e.Format != "tsv" || e.Offset != 0 || e.Record != 0 || e.Reason == "" {
		t.Errorf("first entry %+v, want tsv record 0 at offset 0 with a reason", e)
	}
	if e := entries[1]; e.Record != 50 {
		t.Errorf("second entry at record %d, want 50", e.Record)
	}
}

func TestTolerantReaderChunkAccurateAccounting(t *testing.T) {
	recs := synthRecords(t, 400)
	stream, frames := encodeChunkFrames(t, recs)
	// Corrupt exactly 1.5% of records by smashing their cache-status
	// byte, the last of each one-record payload: framing stays intact and
	// the payload checksum fails, so each injected fault quarantines
	// exactly one record.
	var injected int64
	for i := 3; i < len(frames); i += 67 {
		stream[frames[i][1]-1] = 0xEE
		injected++
	}
	if float64(injected)/float64(len(recs)) < 0.01 {
		t.Fatalf("test needs >= 1%% corruption, got %d/%d", injected, len(recs))
	}

	reg := obs.NewRegistry()
	tr := NewTolerantReader(logfmt.NewChunkReader(bytes.NewReader(stream)),
		Options{MaxErrorRate: 0.05, Metrics: NewInstrumentation(reg)})
	var got int64
	if err := tr.ForEach(func(*logfmt.Record) error { got++; return nil }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	st := tr.Stats()
	if st.Quarantined != injected {
		t.Errorf("quarantined %d, want exactly %d", st.Quarantined, injected)
	}
	if got != int64(len(recs))-injected {
		t.Errorf("recovered %d, want %d", got, int64(len(recs))-injected)
	}
	if st.Resyncs != injected {
		t.Errorf("resyncs %d, want %d (one per quarantined frame)", st.Resyncs, injected)
	}
	if st.BytesSkipped != 0 {
		t.Errorf("skipped %d bytes, want 0 (framing intact)", st.BytesSkipped)
	}
	// Counters mirror the stats.
	if v := reg.Counter("ingest_quarantined_total").Value(); v != injected {
		t.Errorf("ingest_quarantined_total = %d, want %d", v, injected)
	}
	if v := reg.Counter("ingest_records_total").Value(); v != got {
		t.Errorf("ingest_records_total = %d, want %d", v, got)
	}
}

func TestTolerantReaderBudgetFailsFastWithPosition(t *testing.T) {
	recs := synthRecords(t, 200)
	stream, frames := encodeChunkFrames(t, recs)
	for i := 0; i < len(frames); i += 5 { // 20% corrupt
		stream[frames[i][1]-1] = 0xEE
	}
	tr := NewTolerantReader(logfmt.NewChunkReader(bytes.NewReader(stream)),
		Options{MaxErrorRate: 0.05, MinRecords: 50})
	var rec logfmt.Record
	var err error
	for {
		err = tr.Read(&rec)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	for _, want := range []string{"byte", "record", "budget"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("budget error %q should mention %q", err, want)
		}
	}
	// Fails fast: the budget trips within the grace window's
	// neighborhood, not after draining the stream.
	st := tr.Stats()
	if total := st.Records + st.Quarantined; total > 80 {
		t.Errorf("read %d records before failing, want fail-fast near MinRecords=50", total)
	}
}

func TestTolerantReaderChaosGarbageInsertion(t *testing.T) {
	recs := synthRecords(t, 1000)
	clean := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 4})
	cr := &resilience.CorruptingReader{
		R:           bytes.NewReader(clean),
		Seed:        99,
		GarbageRate: 0.0001, // ~ a dozen garbage runs across the stream
		GarbageLen:  24,
		SkipBytes:   6, // keep the file header intact
	}
	tr := NewTolerantReader(logfmt.NewChunkReader(cr), Options{MaxErrorRate: 0.25})
	var got int64
	err := tr.ForEach(func(r *logfmt.Record) error {
		if verr := r.Validate(); verr != nil {
			t.Fatalf("surviving record invalid: %v", verr)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatalf("pipeline did not survive chaos: %v (stats %+v)", err, tr.Stats())
	}
	st := tr.Stats()
	if cr.Faults() == 0 {
		t.Fatal("chaos reader injected nothing; raise GarbageRate")
	}
	if st.Quarantined == 0 {
		t.Error("no quarantines despite injected garbage")
	}
	// Most of the stream must survive: each garbage run can take out one
	// four-record chunk, never whole swaths.
	if got < int64(len(recs))*8/10 {
		t.Errorf("recovered only %d of %d records", got, len(recs))
	}
	if st.Records != got {
		t.Errorf("stats.Records = %d, delivered %d", st.Records, got)
	}
}

func TestTolerantReaderChaosTruncation(t *testing.T) {
	recs := synthRecords(t, 100)
	clean, _ := encodeChunkFrames(t, recs)
	cr := &resilience.CorruptingReader{
		R:          bytes.NewReader(clean),
		Seed:       5,
		TruncateAt: int64(len(clean)) * 2 / 3, // mid-chunk EOF
	}
	tr := NewTolerantReader(logfmt.NewChunkReader(cr), Options{MaxErrorRate: 0.25})
	var got int64
	if err := tr.ForEach(func(*logfmt.Record) error { got++; return nil }); err != nil {
		t.Fatalf("truncated stream should end cleanly, got %v", err)
	}
	st := tr.Stats()
	if got == 0 || got >= int64(len(recs)) {
		t.Errorf("recovered %d records from a truncated stream of %d", got, len(recs))
	}
	if st.Quarantined != 1 {
		t.Errorf("quarantined %d, want exactly 1 (the cut record)", st.Quarantined)
	}
}

func TestDeadLetterNilSafe(t *testing.T) {
	var d *DeadLetter
	if err := d.Write(Quarantine{}); err != nil || d.Count() != 0 || d.Flush() != nil {
		t.Error("nil DeadLetter should be a counting no-op")
	}
	dd := NewDeadLetter(nil)
	dd.Write(Quarantine{Reason: "x"})
	if dd.Count() != 1 {
		t.Errorf("count-only dead letter Count = %d, want 1", dd.Count())
	}
}

func TestStatsErrorRate(t *testing.T) {
	if r := (Stats{}).ErrorRate(); r != 0 {
		t.Errorf("empty ErrorRate = %v", r)
	}
	if r := (Stats{Records: 95, Quarantined: 5}).ErrorRate(); r != 0.05 {
		t.Errorf("ErrorRate = %v, want 0.05", r)
	}
}

var _ io.Reader = (*resilience.CorruptingReader)(nil)
