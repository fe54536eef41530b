package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per family (plus
// # HELP when set), families sorted by name, series sorted by label
// set. HDR histograms are summaries: one {quantile="..."} sample per
// default quantile, plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		srs := f.series
		sort.Slice(srs, func(i, j int) bool {
			return labelKey(srs[i].labels) < labelKey(srs[j].labels)
		})
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range srs {
			switch {
			case s.c != nil:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatInt(s.c.Value(), 10))
			case s.cfn != nil:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatInt(s.cfn(), 10))
			case s.g != nil:
				writeSample(bw, f.name, "", s.labels, "", formatFloat(s.g.Value()))
			case s.gfn != nil:
				writeSample(bw, f.name, "", s.labels, "", formatFloat(s.gfn()))
			case s.hdr != nil:
				unit := s.hdr.Config().Unit
				for _, row := range s.hdr.Percentiles() {
					writeSample(bw, f.name, "", s.labels,
						formatFloat(row.Quantile), formatFloat(float64(row.Value)*unit))
				}
				writeSample(bw, f.name, "_sum", s.labels, "", formatFloat(float64(s.hdr.Sum())*unit))
				writeSample(bw, f.name, "_count", s.labels, "", strconv.FormatInt(s.hdr.Count(), 10))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one sample line:
// name[suffix]{labels[,quantile="quantile"]} value.
func writeSample(bw *bufio.Writer, name, suffix string, labels []string, quantile, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 || quantile != "" {
		bw.WriteByte('{')
		first := true
		for i := 0; i+1 < len(labels); i += 2 {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(labels[i])
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(labels[i+1]))
			bw.WriteByte('"')
		}
		if quantile != "" {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(`quantile="`)
			bw.WriteString(quantile)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
