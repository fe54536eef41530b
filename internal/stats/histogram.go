package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts observations into fixed, caller-defined bins. It backs
// the period histogram (Fig. 5). The bins are defined by their upper
// edges; an observation x falls into the first bin whose edge is >= x,
// and one above the last edge is not counted. Histogram is not safe for
// concurrent use.
type Histogram struct {
	edges  []float64
	counts []int64
}

// NewHistogram creates a histogram with the given ascending bin upper
// edges. It panics if edges is empty or not strictly ascending.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("stats: NewHistogram with no edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: NewHistogram edges must be strictly ascending")
		}
	}
	e := make([]float64, len(edges))
	copy(e, edges)
	return &Histogram{edges: e, counts: make([]int64, len(e))}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if i := sort.SearchFloat64s(h.edges, x); i < len(h.edges) {
		h.counts[i]++
	}
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.edges) }

// Edge returns the upper edge of bin i.
func (h *Histogram) Edge(i int) float64 { return h.edges[i] }

// Count returns the tally of bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// ECDF is an empirical cumulative distribution function built from a
// sample. It backs Fig. 6 (CDF of periodic-client share). The zero value
// is empty and usable; call Add then Eval/Points. ECDF is not safe for
// concurrent use.
type ECDF struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.xs) }

func (e *ECDF) ensureSorted() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// Eval returns F(x) = P[X <= x], or 0 for an empty sample.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	i := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.xs))
}

// InverseEval returns the smallest x with F(x) >= p, or 0 for an empty
// sample. p is clamped to [0, 1].
func (e *ECDF) InverseEval(p float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	return quantileSorted(e.xs, p)
}

// Points returns up to n evenly spaced (x, F(x)) pairs spanning the
// sample range, suitable for plotting the CDF curve.
func (e *ECDF) Points(n int) []Point {
	if len(e.xs) == 0 || n <= 0 {
		return nil
	}
	e.ensureSorted()
	lo, hi := e.xs[0], e.xs[len(e.xs)-1]
	if n == 1 || hi == lo {
		return []Point{{X: hi, Y: 1}}
	}
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: e.Eval(x)}
	}
	return pts
}

// Point is an (x, y) pair on a curve.
type Point struct {
	X, Y float64
}

// Matrix is a dense row-major float64 matrix with labeled rows and
// columns, used for the cacheability heatmap (Fig. 4). Matrix is not safe
// for concurrent use.
type Matrix struct {
	RowLabels []string
	ColLabels []string
	data      []float64
}

// NewMatrix creates a zero matrix with the given labels.
func NewMatrix(rowLabels, colLabels []string) *Matrix {
	return &Matrix{
		RowLabels: append([]string(nil), rowLabels...),
		ColLabels: append([]string(nil), colLabels...),
		data:      make([]float64, len(rowLabels)*len(colLabels)),
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.RowLabels) }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return len(m.ColLabels) }

func (m *Matrix) idx(r, c int) int {
	if r < 0 || r >= m.Rows() || c < 0 || c >= m.Cols() {
		panic(fmt.Sprintf("stats: matrix index (%d,%d) out of range %dx%d", r, c, m.Rows(), m.Cols()))
	}
	return r*m.Cols() + c
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.data[m.idx(r, c)] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.data[m.idx(r, c)] = v }

// Inc adds delta to element (r, c).
func (m *Matrix) Inc(r, c int, delta float64) { m.data[m.idx(r, c)] += delta }

// NormalizeRows scales each row to sum to 1; all-zero rows are left
// untouched.
func (m *Matrix) NormalizeRows() {
	for r := 0; r < m.Rows(); r++ {
		sum := 0.0
		for c := 0; c < m.Cols(); c++ {
			sum += m.At(r, c)
		}
		if sum == 0 {
			continue
		}
		for c := 0; c < m.Cols(); c++ {
			m.Set(r, c, m.At(r, c)/sum)
		}
	}
}

// Max returns the largest element, or 0 for an empty matrix.
func (m *Matrix) Max() float64 {
	var max float64
	for _, v := range m.data {
		if v > max {
			max = v
		}
	}
	return max
}
