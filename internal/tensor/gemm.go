package tensor

import (
	"time"

	"deepmd-go/internal/perf"
)

// Kernel selects a GEMM implementation family.
type Kernel int

const (
	// Blocked is the production family and the default (the zero Opts
	// value): pickTier routes each call to the SIMD strips, the packed
	// engine of blocked.go or the naive item loops, with optional
	// intra-call parallelism.
	Blocked Kernel = iota
	// Naive is the reference family: the original serial i-k-j and
	// dot-product loops. It survives as the differential-test oracle and
	// the 2018-baseline execution strategy.
	Naive
)

// Opts selects the kernel family and intra-op parallelism for one GEMM
// call. The zero value is the production family, serial. Workers
// partitions C row blocks (or batch items) across goroutines; results are
// bit-identical for every worker count.
type Opts struct {
	Kernel  Kernel
	Workers int
}

// GemmOpt computes C = alpha*A*B + beta*C for row-major matrices,
// A: m x k, B: k x n, C: m x n — the CPU stand-in for the single CUBLAS
// GEMM call the optimized DeePMD-kit uses (Sec. 5.3.1).
func GemmOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic("tensor: Gemm dimension mismatch")
	}
	start := time.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	gemm(o, layoutN, 1, m, k, n, alpha, a.Data, 0, b.Data, 0, beta, c.Data, 0, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(m)*int64(n)*int64(k))
}

// GemmNTOpt computes C = alpha*A*B^T + beta*C, A: m x k, B: n x k,
// C: m x n. Used by the backward passes (dX = dY * W^T).
func GemmNTOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("tensor: GemmNT dimension mismatch")
	}
	start := time.Now()
	m, k, n := a.Rows, a.Cols, b.Rows
	gemm(o, layoutNT, 1, m, k, n, alpha, a.Data, 0, b.Data, 0, beta, c.Data, 0, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(m)*int64(n)*int64(k))
}

// GemmTNOpt computes C = alpha*A^T*B + beta*C, A: m x k, B: m x n,
// C: k x n. Used by the training backward pass (dW = X^T * dY) and the
// descriptor contraction G^T * R~.
func GemmTNOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Rows != b.Rows || a.Cols != c.Rows || b.Cols != c.Cols {
		panic("tensor: GemmTN dimension mismatch")
	}
	start := time.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	gemm(o, layoutTN, 1, m, k, n, alpha, a.Data, 0, b.Data, 0, beta, c.Data, 0, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(m)*int64(n)*int64(k))
}

// layout tags the storage of one GEMM item (row-major operands).
type layout int

const (
	layoutN  layout = iota // A m x k, B k x n, C m x n
	layoutNT               // A m x k, B n x k, C m x n
	layoutTN               // A m x k, B m x n, C k x n
)

// tier is one of the three GEMM execution engines.
type tier int

const (
	tierNaive   tier = iota // the reference loops below, item by item
	tierSIMD                // the register-tiled strips of simd.go
	tierBlocked             // the packed engine of blocked.go
)

// pickTier is the one tier decision behind every GEMM entry point, for
// items of layout l in the entry points' dimension convention. Kernel =
// Naive forces the reference loops. A batch-1 N or NT item the SIMD strips
// cover goes there, on the returned target: the active family is read
// once per call. Otherwise one size rule picks the packed engine when its
// packing amortizes — reduction depth >= 8, at least two microkernel row
// strips of output, 2^13 multiply-adds per item and 2^15 per call (slab
// acquisition and dispatch are paid once per call, packing once per item)
// — and the naive item loops for everything smaller: the k <= 16
// descriptor contractions, k = 1 embedding inputs, per-atom products.
// Batches of one to three items therefore route by batch size, like
// single GEMMs of the same total volume.
func pickTier[T Float](o Opts, l layout, batch, m, k, n int, alpha T) (tier, simdTarget) {
	if o.Kernel == Naive {
		return tierNaive, simdTarget{}
	}
	if batch == 1 && alpha != 0 {
		var z T
		if s, ok := simdActive(sizeofT(z)); ok && s.covers(l, m, k, n) {
			return tierSIMD, s
		}
	}
	rows, depth := m, k
	if l == layoutTN {
		rows, depth = k, m
	}
	if vol := rows * depth * n; depth >= 8 && rows >= 2*mr && vol >= 1<<13 && batch*vol >= 1<<15 {
		return tierBlocked, simdTarget{}
	}
	return tierNaive, simdTarget{}
}

// gemm is the one executor behind every GEMM entry point. Item g of A, B
// and C starts at a[g*as:], b[g*bs:] and c[g*cs:], stored per l; a single
// GEMM is a batch of one with zero strides. mode != epiNone is the fused
// bias form of a batch-1 N item (alpha = 1, bias of n elements, grad m x n
// for epiTanhGrad): the SIMD strips apply bias, tanh and its gradient in
// their store loop; the other tiers seed C with the bias rows and
// accumulate on top (beta = 1, the CUBLAS trick of Sec. 5.3.1), leaving
// tanh to the caller. It reports whether the SIMD strips ran the call.
func gemm[T Float](o Opts, l layout, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int, bias []T, mode int, grad []T) bool {
	t, s := pickTier(o, l, batch, m, k, n, alpha)
	if t == tierSIMD {
		if l == layoutNT {
			gemmNTSIMD(s.fam, o.Workers, m, k, n, alpha, a, k, b, k, beta, c, n)
		} else {
			gemmSIMD(s, o.Workers, m, k, n, alpha, a, k, b, n, beta, c, n, bias, mode, grad, n)
		}
		return true
	}
	if mode != epiNone {
		for i := 0; i < m; i++ {
			copy(c[i*n:i*n+n], bias)
		}
		beta = 1
	}
	if t == tierNaive {
		workers := o.Workers
		if o.Kernel == Naive {
			workers = 1
		}
		runBatchNaive(workers, l, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
		return false
	}
	// The packed engine sees A' (rows x depth) and B' (depth x n) through
	// element strides: packing absorbs the transposes.
	rows, depth, ari, arp, brp, brj := m, k, k, 1, n, 1
	switch l {
	case layoutNT:
		brp, brj = 1, k
	case layoutTN:
		rows, depth, ari, arp = k, m, 1, k
	}
	gemmBlocked(o.Workers, batch, rows, n, depth, alpha, a, as, ari, arp, b, bs, brp, brj, beta, c, cs, n)
	return false
}

// gemmNaive is the reference C = alpha*A*B + beta*C: an i-k-j loop order so
// the innermost loop streams contiguous rows of B and C.
func gemmNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : i*n+n]
		switch beta {
		case 0:
			clear(ci)
		case 1:
			// keep
		default:
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a.Data[i*k : i*k+k]
		for l, av := range ai {
			s := alpha * av
			if s == 0 {
				continue
			}
			bl := b.Data[l*n : l*n+n]
			axpy(s, bl, ci)
		}
	}
}

// gemmNTNaive is the reference C = alpha*A*B^T + beta*C: the inner loop is
// a dot product over two contiguous rows.
func gemmNTNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : i*k+k]
		ci := c.Data[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : j*k+k]
			s := dot(ai, bj)
			if beta == 0 {
				ci[j] = alpha * s
			} else {
				ci[j] = alpha*s + beta*ci[j]
			}
		}
	}
}

// gemmTNNaive is the reference C = alpha*A^T*B + beta*C.
func gemmTNNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if beta == 0 {
		clear(c.Data)
	} else if beta != 1 {
		for j := range c.Data {
			c.Data[j] *= beta
		}
	}
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : i*k+k]
		bi := b.Data[i*n : i*n+n]
		for l, av := range ai {
			s := alpha * av
			if s == 0 {
				continue
			}
			cl := c.Data[l*n : l*n+n]
			axpy(s, bi, cl)
		}
	}
}

// axpy computes dst += s*src element-wise.
func axpy[T Float](s T, src, dst []T) {
	n := len(dst)
	src = src[:n]
	// Unroll by 4 to help the compiler keep the accumulators in registers.
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += s * src[i]
		dst[i+1] += s * src[i+1]
		dst[i+2] += s * src[i+2]
		dst[i+3] += s * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += s * src[i]
	}
}

// dot returns the inner product of a and b (len(a) elements).
func dot[T Float](a, b []T) T {
	var s0, s1, s2, s3 T
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += s*x and records it as CatOther.
func Axpy[T Float](ctr *perf.Counter, s T, x, y []T) {
	start := time.Now()
	axpy(s, x, y)
	ctr.Observe(perf.CatOther, start, 2*int64(len(y)))
}

// Dot returns the inner product of a and b and records it as CatOther.
func Dot[T Float](ctr *perf.Counter, a, b []T) T {
	start := time.Now()
	s := dot(a, b)
	ctr.Observe(perf.CatOther, start, 2*int64(len(a)))
	return s
}

// DotRows computes out[i] = <row i of a, row i of b> for len(out) rows
// of two row-major matrices with m columns. This is a strided-batched
// GEMM whose items are 1 x 1 — the shape the compressed embedding
// backward collapses to — so one timer covers the whole batch and, like
// the batched family, it records under GEMM.
func DotRows[T Float](ctr *perf.Counter, a, b, out []T, m int) {
	start := time.Now()
	for i := range out {
		out[i] = dot(a[i*m:(i+1)*m], b[i*m:(i+1)*m])
	}
	ctr.Observe(perf.CatGEMM, start, 2*int64(len(out))*int64(m))
}
