package logfmt

import (
	"io"
	"strings"
	"testing"
)

func TestReaderDecodeErrorPosition(t *testing.T) {
	r := sampleRecord()
	good := string(AppendTSV(nil, &r))
	bad := "not\ta\tvalid\tline\n"
	rd, err := NewReader(strings.NewReader(good+bad+good), FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := rd.Read(&rec); err != nil {
		t.Fatalf("first record: %v", err)
	}
	err = rd.Read(&rec)
	de := AsDecodeError(err)
	if de == nil {
		t.Fatalf("want *DecodeError, got %v", err)
	}
	if de.Format != "tsv" || de.Record != 1 {
		t.Errorf("DecodeError = %+v, want format tsv record 1", de)
	}
	if de.Offset != int64(len(good)) || de.Span != int64(len(bad)) {
		t.Errorf("bad span [%d,+%d), want [%d,+%d)", de.Offset, de.Span, len(good), len(bad))
	}
	// The bad line is consumed: the reader resumes on the next line.
	if err := rd.Read(&rec); err != nil {
		t.Fatalf("record after bad line: %v", err)
	}
	if err := rd.Read(&rec); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderDecodeErrorKeepsLineNumber(t *testing.T) {
	r := sampleRecord()
	good := string(AppendTSV(nil, &r))
	rd, err := NewReader(strings.NewReader(good+"junk\n"), FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	rd.Read(&rec)
	if err := rd.Read(&rec); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should mention line 2, got %v", err)
	}
}
