package dsp

import (
	"math"
	"math/bits"
)

// radix2 holds the twiddle tables of one power-of-two transform size:
// they depend only on the size, so a plan builds them once and every
// transform of that size reads them.
//
// The size-m forward DFT is computed as a radix-2 transform whose stages
// run two at a time (one pass over the data does the stages of half-size
// q and 2q as a radix-4 butterfly, with three twiddle multiplications
// where two radix-2 passes spend four), in two forms that differ in
// where the bit-reversal permutation sits: scramble takes natural order
// to bit-reversed order, unscramble the reverse. Neither moves data to
// permute it. Element-wise work between the two (multiplying spectra,
// taking powers) does not care about the order, so a convolution or a
// correlation never pays for the permutation at all.
//
// There is no inverse kernel: the inverse of a length-m transform is the
// forward one read at index (m-k) mod m and divided by m, which every
// caller folds into its own read-out.
type radix2 struct {
	// tw[half+k] = exp(-2πi·k/(2·half)) for half = 1, 2, 4, ..., m/2
	// and k < half: each butterfly stage reads one contiguous run.
	// tw3[half+k] is the cube of tw[half+k], the third twiddle of a
	// radix-4 butterfly.
	tw, tw3 []complex128
}

func newRadix2(m int) *radix2 {
	r := &radix2{tw: make([]complex128, m), tw3: make([]complex128, m)}
	for half := 1; half < m; half <<= 1 {
		for k := 0; k < half; k++ {
			s, c := math.Sincos(-math.Pi * float64(k) / float64(half))
			r.tw[half+k] = complex(c, s)
			s, c = math.Sincos(-math.Pi * float64(3*k) / float64(half))
			r.tw3[half+k] = complex(c, s)
		}
	}
	return r
}

// firstQuarter is the q of the smallest twiddled radix-4 pass of a
// size-m transform: below it sits one twiddle-free pass, a radix-2 one
// when the number of stages is odd and a radix-4 one when it is even.
func firstQuarter(m int) int {
	if bits.TrailingZeros(uint(m))&1 == 1 {
		return 2
	}
	return 4
}

// scramble transforms a, in natural order, in place, leaving the
// spectrum in bit-reversed order (decimation in frequency). len(a) is
// the size the tables were built for.
func (r *radix2) scramble(a []complex128) {
	m := len(a)
	first := firstQuarter(m)
	for q := m / 4; q >= first; q >>= 2 {
		w1s := r.tw[q : 2*q]
		w2s := r.tw[2*q : 3*q]
		w3s := r.tw3[2*q : 3*q]
		w2s, w3s = w2s[:len(w1s)], w3s[:len(w1s)]
		for s := 0; s < m; s += 4 * q {
			x0 := a[s : s+q]
			x1 := a[s+q : s+2*q]
			x2 := a[s+2*q : s+3*q]
			x3 := a[s+3*q : s+4*q]
			x0, x1, x2, x3 = x0[:len(w1s)], x1[:len(w1s)], x2[:len(w1s)], x3[:len(w1s)]
			for k, w1 := range w1s {
				s02, d02 := x0[k]+x2[k], x0[k]-x2[k]
				s13, d13 := x1[k]+x3[k], x1[k]-x3[k]
				u := complex(imag(d13), -real(d13)) // -i·d13
				x0[k] = s02 + s13
				x1[k] = (s02 - s13) * w1
				x2[k] = (d02 + u) * w2s[k]
				x3[k] = (d02 - u) * w3s[k]
			}
		}
	}
	switch {
	case first == 2:
		pairStage(a)
	case m >= 4:
		for s := 0; s < m; s += 4 {
			x := a[s : s+4 : s+4]
			s02, d02 := x[0]+x[2], x[0]-x[2]
			s13, d13 := x[1]+x[3], x[1]-x[3]
			u := complex(imag(d13), -real(d13))
			x[0], x[1], x[2], x[3] = s02+s13, s02-s13, d02+u, d02-u
		}
	}
}

// unscramble transforms a, in bit-reversed order, in place, leaving the
// spectrum in natural order (decimation in time).
func (r *radix2) unscramble(a []complex128) {
	m := len(a)
	first := firstQuarter(m)
	switch {
	case first == 2:
		pairStage(a)
	case m >= 4:
		for s := 0; s < m; s += 4 {
			x := a[s : s+4 : s+4]
			b0, b1 := x[0]+x[1], x[0]-x[1]
			t, d := x[2]+x[3], x[2]-x[3]
			u := complex(imag(d), -real(d)) // -i·d
			x[0], x[1], x[2], x[3] = b0+t, b1+u, b0-t, b1-u
		}
	}
	for q := first; q < m; q <<= 2 {
		w1s := r.tw[q : 2*q]
		w2s := r.tw[2*q : 3*q]
		w3s := r.tw3[2*q : 3*q]
		w2s, w3s = w2s[:len(w1s)], w3s[:len(w1s)]
		for s := 0; s < m; s += 4 * q {
			x0 := a[s : s+q]
			x1 := a[s+q : s+2*q]
			x2 := a[s+2*q : s+3*q]
			x3 := a[s+3*q : s+4*q]
			x0, x1, x2, x3 = x0[:len(w1s)], x1[:len(w1s)], x2[:len(w1s)], x3[:len(w1s)]
			for k, w1 := range w1s {
				t1 := x1[k] * w1
				t2 := x2[k] * w2s[k]
				t3 := x3[k] * w3s[k]
				b0, b1 := x0[k]+t1, x0[k]-t1
				t, d := t2+t3, t2-t3
				u := complex(imag(d), -real(d)) // -i·d
				x0[k], x1[k], x2[k], x3[k] = b0+t, b1+u, b0-t, b1-u
			}
		}
	}
}

// pairStage is the twiddle-free radix-2 stage over adjacent elements.
func pairStage(a []complex128) {
	for s := 0; s+1 < len(a); s += 2 {
		e, o := a[s], a[s+1]
		a[s], a[s+1] = e+o, e-o
	}
}

// bitReverse permutes a, whose length is a power of two, between natural
// and bit-reversed order.
func bitReverse(a []complex128) {
	shift := 64 - uint(bits.TrailingZeros(uint(len(a))))
	for i := 1; i < len(a); i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// fftPlan is everything a transform needs that does not depend on the
// sample values: radix-2 tables per power-of-two size, the Bluestein
// chirp of the signal length last transformed, and the scratch the
// transforms run in. A plan is owned by one goroutine; nothing in it is
// shared.
type fftPlan struct {
	// radix[b] is the table set of size 1<<b, built on first use. The
	// sizes are powers of two, so the set is bounded (its total is under
	// twice the largest size ever asked for) however many signal lengths
	// pass through.
	radix [bits.UintSize]*radix2

	// The Bluestein tables depend on the exact signal length, and flow
	// lengths are data: caching one set per length would grow without
	// bound, so only the last length is kept. One Detect call runs all
	// its transforms at one length, which is where the reuse is.
	chirpLen int
	// chirp[j] = exp(-iπj²/n).
	chirp []complex128
	// kernel is the size-m transform, in bit-reversed order, of the
	// conjugate chirp laid out circularly, pre-divided by m so the
	// convolution needs no scaling.
	kernel []complex128

	work []complex128
}

func (p *fftPlan) pow2(m int) *radix2 {
	b := bits.TrailingZeros(uint(m))
	if p.radix[b] == nil {
		p.radix[b] = newRadix2(m)
	}
	return p.radix[b]
}

// scratch returns p.work resized to m; its contents are unspecified.
func (p *fftPlan) scratch(m int) []complex128 {
	p.work = grow(p.work, m)
	return p.work
}

// grow returns s resized to n with unspecified contents, reallocating
// (to a power-of-two capacity, so a run of slowly lengthening signals
// reallocates rarely) only when s is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, nextPow2(n))
	}
	return s[:n]
}

func nextPow2(n int) int {
	m := 1
	for m < n {
		m <<= 1
	}
	return m
}

// planChirp makes chirp and kernel current for signal length n with a
// convolution size of m.
func (p *fftPlan) planChirp(n, m int) {
	if p.chirpLen == n {
		return
	}
	p.chirp = grow(p.chirp, n)
	p.kernel = grow(p.kernel, m)
	clear(p.kernel)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(k2) / float64(n))
		p.chirp[k] = complex(c, s)
		p.kernel[k] = complex(c, -s)
		if k > 0 {
			p.kernel[m-k] = complex(c, -s)
		}
	}
	p.pow2(m).scramble(p.kernel)
	inv := complex(1/float64(m), 0)
	for i := range p.kernel {
		p.kernel[i] *= inv
	}
	p.chirpLen = n
}

// dft writes the DFT of src to dst; both have the same, arbitrary,
// length and may be the same slice. Power-of-two lengths transform
// directly; others go through Bluestein's chirp-z convolution. dft
// overwrites the plan's scratch.
func (p *fftPlan) dft(dst, src []complex128) {
	n := len(src)
	if n&(n-1) == 0 {
		copy(dst, src)
		if n > 1 {
			p.pow2(n).scramble(dst)
			bitReverse(dst)
		}
		return
	}
	m := nextPow2(2*n - 1)
	p.planChirp(n, m)
	r := p.pow2(m)
	work := p.scratch(m)
	for j, w := range p.chirp {
		work[j] = src[j] * w
	}
	clear(work[n:])
	r.scramble(work)
	for i, k := range p.kernel {
		work[i] *= k
	}
	// The second forward transform stands in for the inverse: the
	// convolution's term k sits at index (m-k) mod m.
	r.unscramble(work)
	dst[0] = p.chirp[0] * work[0]
	for k := 1; k < n; k++ {
		dst[k] = p.chirp[k] * work[m-k]
	}
}

// autocovPair takes two real signals packed as the real and imaginary
// parts of pair and returns a slice whose element lag, for every lag up
// to lags, holds the two raw autocovariance sums Σ x[i]·x[i+lag] in its
// real and imaginary parts. One transform carries both signals (their
// spectra separate by conjugate symmetry) and, power spectra of real
// signals being even, one more returns both correlations. The result is
// the plan's scratch: read it before the next transform.
func (p *fftPlan) autocovPair(pair []complex128, lags int) []complex128 {
	n := len(pair)
	// Padding to n+lags keeps the circular wrap-around out of the lags
	// that are read.
	m := nextPow2(n + lags)
	r := p.pow2(m)
	work := p.scratch(m)
	copy(work, pair)
	clear(work[n:])
	r.scramble(work)
	// Folding splitPower's 1/4 and the inverse's 1/m into the power
	// spectra leaves nothing to scale afterwards. Frequencies k and m-k
	// are negatives of each other, and negating a number keeps its lowest
	// set bit and flips every bit above it; bit-reversed, that keeps the
	// highest set bit of the position and flips every bit below it. So
	// within each block [2^t, 2^(t+1)) of positions the partner of i is
	// its mirror image, and positions 0 and 1 (k = 0 and m/2) are their
	// own partners.
	scale := 0.25 / float64(m)
	for i := 0; i < min(m, 2); i++ {
		pa, pb := splitPower(work[i], work[i])
		work[i] = complex(pa*scale, pb*scale)
	}
	for lo := 2; lo < m; lo <<= 1 {
		for i, j := lo, 2*lo-1; i < j; i, j = i+1, j-1 {
			pa, pb := splitPower(work[i], work[j])
			pw := complex(pa*scale, pb*scale)
			work[i], work[j] = pw, pw
		}
	}
	r.unscramble(work)
	return work
}

// splitPower separates the spectra of two real signals a and b that
// were transformed together as a+ib. With Z that transform, zk = Z[k]
// and zj = Z[(N-k) mod N], conjugate symmetry gives
// A[k] = (zk + conj zj)/2 and B[k] = (zk - conj zj)/2i; the results are
// |2A[k]|² and |2B[k]|².
func splitPower(zk, zj complex128) (pa, pb float64) {
	sr, si := real(zk)+real(zj), imag(zk)-imag(zj)
	dr, di := real(zk)-real(zj), imag(zk)+imag(zj)
	return sr*sr + si*si, dr*dr + di*di
}
