package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	h.Add(5)    // bin 0 (<=10)
	h.Add(10)   // bin 0 (edge inclusive)
	h.Add(10.1) // bin 1
	h.Add(25)   // bin 2
	h.Add(31)   // above the last edge: not counted
	if h.Count(0) != 2 || h.Count(1) != 1 || h.Count(2) != 1 {
		t.Errorf("counts = %d,%d,%d", h.Count(0), h.Count(1), h.Count(2))
	}
	if h.NumBins() != 3 || h.Edge(0) != 10 || h.Edge(2) != 30 {
		t.Errorf("bins = %d, edges %v..%v", h.NumBins(), h.Edge(0), h.Edge(2))
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, edges := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestHistogramConservation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		h := NewHistogram([]float64{0.25, 0.5, 0.75, 1})
		const n = 500
		var inRange int64
		for i := 0; i < n; i++ {
			x := r.Float64() * 1.2 // some above the last edge
			if x <= 1 {
				inRange++
			}
			h.Add(x)
		}
		var sum int64
		for i := 0; i < h.NumBins(); i++ {
			sum += h.Count(i)
		}
		return sum == inRange
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestECDFEval(t *testing.T) {
	var e ECDF
	for _, x := range []float64{1, 2, 3, 4} {
		e.Add(x)
	}
	cases := map[float64]float64{0.5: 0, 1: 0.25, 2.5: 0.5, 4: 1, 10: 1}
	for x, want := range cases {
		if got := e.Eval(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestECDFMonotone(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		var e ECDF
		for i := 0; i < 50; i++ {
			e.Add(r.NormFloat64())
		}
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.1 {
			v := e.Eval(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestECDFInverseEval(t *testing.T) {
	var e ECDF
	for i := 1; i <= 100; i++ {
		e.Add(float64(i))
	}
	if got := e.InverseEval(0.5); math.Abs(got-50.5) > 1 {
		t.Errorf("median = %v", got)
	}
	var empty ECDF
	if empty.InverseEval(0.5) != 0 || empty.Eval(1) != 0 {
		t.Error("empty ECDF should report 0")
	}
}

func TestECDFPoints(t *testing.T) {
	var e ECDF
	e.Add(0)
	e.Add(10)
	pts := e.Points(11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Errorf("x range = %v..%v", pts[0].X, pts[10].X)
	}
	if pts[10].Y != 1 {
		t.Errorf("final y = %v", pts[10].Y)
	}
	if e.Points(0) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestMatrixOps(t *testing.T) {
	m := NewMatrix([]string{"r1", "r2"}, []string{"c1", "c2", "c3"})
	m.Set(0, 1, 5)
	m.Inc(0, 1, 2)
	m.Inc(1, 2, 3)
	if m.At(0, 1) != 7 || m.At(1, 2) != 3 || m.At(0, 0) != 0 {
		t.Error("matrix get/set broken")
	}
	if m.Max() != 7 {
		t.Errorf("Max = %v", m.Max())
	}
	m.Set(0, 0, 3)
	m.NormalizeRows()
	if math.Abs(m.At(0, 0)-0.3) > 1e-12 || math.Abs(m.At(0, 1)-0.7) > 1e-12 {
		t.Errorf("row 0 not normalized: %v %v", m.At(0, 0), m.At(0, 1))
	}
	if m.At(1, 2) != 1 {
		t.Errorf("row 1 not normalized: %v", m.At(1, 2))
	}
}

func TestMatrixZeroRowNormalize(t *testing.T) {
	m := NewMatrix([]string{"a"}, []string{"x", "y"})
	m.NormalizeRows() // must not divide by zero
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Error("zero row should remain zero")
	}
}

func TestMatrixPanicsOutOfRange(t *testing.T) {
	m := NewMatrix([]string{"a"}, []string{"x"})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	m.At(1, 0)
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.SetHeader("K", "Clustered", "Actual")
	tb.AddRowf(1, 0.65, 0.45)
	tb.AddRow("5", "0.84", "0.64")
	out := tb.String()
	if !strings.Contains(out, "Clustered") || !strings.Contains(out, "0.84") {
		t.Errorf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"mobile", "embedded"}, []float64{0.55, 0.12}, 20)
	if !strings.Contains(out, "mobile") || !strings.Contains(out, "#") {
		t.Errorf("bar chart malformed:\n%s", out)
	}
	// Mobile bar must be longer than embedded bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[0], "#") <= strings.Count(lines[1], "#") {
		t.Error("bar lengths not proportional")
	}
}

func TestLineChart(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 4}}
	out := LineChart(pts, 30, 10)
	if !strings.Contains(out, "*") {
		t.Errorf("line chart missing points:\n%s", out)
	}
	if LineChart(nil, 10, 5) != "(no data)\n" {
		t.Error("empty chart should say so")
	}
}

func TestHeatmap(t *testing.T) {
	m := NewMatrix([]string{"News", "Gaming"}, []string{"0%", "50%", "100%"})
	m.Set(0, 2, 1)
	m.Set(1, 0, 0.9)
	out := Heatmap(m)
	if !strings.Contains(out, "News") || !strings.Contains(out, "@") {
		t.Errorf("heatmap malformed:\n%s", out)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.552); got != "55.2%" {
		t.Errorf("Percent = %q", got)
	}
}
