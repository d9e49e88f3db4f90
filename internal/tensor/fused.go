package tensor

import (
	"sync"
	"time"

	"deepmd-go/internal/perf"
)

// This file holds the *fused* operators of the optimized execution graph
// (Sec. 5.3):
//
//   - GemmBiasOpt replaces MATMUL + SUM with one pass (Sec. 5.3.1): the bias
//     row is written into C first and the GEMM accumulates on top of it
//     (the beta = 1 trick of the CUBLAS call C = alpha*A*B + beta*C).
//   - GemmBiasTanhGradOpt additionally fuses TANH and TANHGrad into the same
//     pass over the output (Sec. 5.3.3): y = tanh(x*W + b) and
//     dy/dpre = 1 - y^2 are produced together, trading the memory for the
//     gradient (allocated up front in the arena) for a second traversal.
//   - AddSkipDouble and AddSkipSame replace CONCAT + SUM (Sec. 5.3.2): the
//     concatenated (x, x) never materializes; the skip connection is an
//     in-place strided add into the activation output.

// GemmBiasOpt computes C = A*B + bias broadcast over rows, in one fused
// pass: the SIMD strips seed their accumulators with the bias; the other
// tiers write the bias row into C first and accumulate the GEMM on top
// (the beta = 1 trick of the CUBLAS call).
func GemmBiasOpt[T Float](o Opts, ctr *perf.Counter, a, b Matrix[T], bias []T, c Matrix[T]) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols || len(bias) != c.Cols {
		panic("tensor: GemmBias dimension mismatch")
	}
	start := time.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	gemm(o, layoutN, 1, m, k, n, 1, a.Data, 0, b.Data, 0, 0, c.Data, 0, bias, epiBias, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(m)*int64(n)*int64(k)+int64(m)*int64(n))
}

// GemmBiasTanhGradOpt computes y = tanh(A*B + bias) and grad = 1 - y*y.
// grad may be a zero-sized matrix (Rows == 0) to skip the gradient, in
// which case only the activation is produced. On the SIMD strips the
// whole operator is one pass over y (and grad): bias, tanh and the
// gradient are applied in the store loop, the wall time lands on CatGEMM
// and the tanh FLOPs are recorded under CatTANH with zero duration so
// per-category FLOP totals stay comparable with the two-pass accounting.
// The other tiers run GemmBiasOpt and then one elementwise tanh pass,
// partitioned over the same workers as the GEMM when large enough.
func GemmBiasTanhGradOpt[T Float](o Opts, ctr *perf.Counter, a, b Matrix[T], bias []T, y, grad Matrix[T]) {
	wantGrad := grad.Rows > 0
	if wantGrad && (grad.Rows != y.Rows || grad.Cols != y.Cols) {
		panic("tensor: GemmBiasTanhGrad gradient dimension mismatch")
	}
	if a.Cols != b.Rows || a.Rows != y.Rows || b.Cols != y.Cols || len(bias) != y.Cols {
		panic("tensor: GemmBias dimension mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	mode := epiTanh
	if wantGrad {
		mode = epiTanhGrad
	}
	start := time.Now()
	fused := gemm(o, layoutN, 1, m, k, n, 1, a.Data, 0, b.Data, 0, 0, y.Data, 0, bias, mode, grad.Data)
	ctr.Observe(perf.CatGEMM, start, 2*int64(m)*int64(n)*int64(k)+int64(m)*int64(n))
	start = time.Now()
	// The serial path must not touch the goroutine branch's closure: a
	// shared func literal would escape to the heap on every call and break
	// the allocation-free steady state.
	total := len(y.Data)
	switch {
	case fused:
		// applied in the SIMD store loop
	case o.Workers > 1 && total >= 1<<14:
		var wg sync.WaitGroup
		per := (total + o.Workers - 1) / o.Workers
		for lo := 0; lo < total; lo += per {
			hi := min(total, lo+per)
			wg.Add(1)
			//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
			go func(lo, hi int) {
				defer wg.Done()
				tanhGradRange(y.Data, grad.Data, lo, hi, wantGrad)
			}(lo, hi)
		}
		wg.Wait()
	default:
		tanhGradRange(y.Data, grad.Data, 0, total, wantGrad)
	}
	flops := tanhFLOPs * int64(len(y.Data))
	if wantGrad {
		flops += 2 * int64(len(y.Data))
	}
	ctr.Observe(perf.CatTANH, start, flops)
}

// tanhGradRange applies the fused tanh / tanh-gradient pass over
// [lo, hi) of the pre-activation in y, optionally filling grad.
func tanhGradRange[T Float](y, grad []T, lo, hi int, wantGrad bool) {
	for i, v := range y[lo:hi] {
		t := tanhT(v)
		y[lo+i] = t
		if wantGrad {
			grad[lo+i] = 1 - t*t
		}
	}
}

// TanhWithGrad computes y = tanh(x) and grad = 1 - y*y in one fused pass
// (the Sec. 5.3.3 kernel in isolation, without the preceding GEMM).
func TanhWithGrad[T Float](ctr *perf.Counter, x, y, grad Matrix[T]) {
	if len(x.Data) != len(y.Data) || len(x.Data) != len(grad.Data) {
		panic("tensor: TanhWithGrad dimension mismatch")
	}
	start := time.Now()
	for i, v := range x.Data {
		t := tanhT(v)
		y.Data[i] = t
		grad.Data[i] = 1 - t*t
	}
	ctr.Observe(perf.CatTANH, start, (tanhFLOPs+2)*int64(len(x.Data)))
}

// AddSkipDouble adds the doubling skip connection y += (x, x) in place:
// y has twice the columns of x (Fig. 1(f) without the CONCAT operator).
func AddSkipDouble[T Float](ctr *perf.Counter, x, y Matrix[T]) {
	if y.Cols != 2*x.Cols || y.Rows != x.Rows {
		panic("tensor: AddSkipDouble dimension mismatch")
	}
	start := time.Now()
	n := x.Cols
	for i := 0; i < x.Rows; i++ {
		xi := x.Data[i*n : i*n+n]
		yi := y.Data[i*2*n : (i+1)*2*n]
		for j, v := range xi {
			yi[j] += v
			yi[j+n] += v
		}
	}
	ctr.Observe(perf.CatOther, start, 2*int64(len(x.Data)))
}

// AddSkipSame adds the identity skip connection y += x in place
// (Fig. 1(g), used by the fitting net where layer sizes match).
func AddSkipSame[T Float](ctr *perf.Counter, x, y Matrix[T]) {
	if y.Cols != x.Cols || y.Rows != x.Rows {
		panic("tensor: AddSkipSame dimension mismatch")
	}
	start := time.Now()
	for i, v := range x.Data {
		y.Data[i] += v
	}
	ctr.Observe(perf.CatOther, start, int64(len(x.Data)))
}

// SkipDoubleBackward folds the gradient of the doubling skip connection:
// dx += dy[:, :n] + dy[:, n:].
func SkipDoubleBackward[T Float](ctr *perf.Counter, dy, dx Matrix[T]) {
	if dy.Cols != 2*dx.Cols || dy.Rows != dx.Rows {
		panic("tensor: SkipDoubleBackward dimension mismatch")
	}
	start := time.Now()
	n := dx.Cols
	for i := 0; i < dx.Rows; i++ {
		di := dy.Data[i*2*n : (i+1)*2*n]
		xi := dx.Data[i*n : i*n+n]
		for j := 0; j < n; j++ {
			xi[j] += di[j] + di[j+n]
		}
	}
	ctr.Observe(perf.CatOther, start, 2*int64(len(dx.Data)))
}

// MulInto computes dst = a .* b element-wise (Hadamard), used to apply the
// stored tanh gradient during backward passes.
func MulInto[T Float](ctr *perf.Counter, a, b, dst Matrix[T]) {
	if len(a.Data) != len(b.Data) || len(a.Data) != len(dst.Data) {
		panic("tensor: MulInto dimension mismatch")
	}
	start := time.Now()
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
	ctr.Observe(perf.CatOther, start, int64(len(a.Data)))
}
