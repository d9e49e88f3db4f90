package tensor

import (
	"math"
	"sync"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// This file is the portable half of the SIMD microkernel engine: shape
// coverage, worker fan-out, and the scalar Go model that finishes the
// M/N remainders the assembly strips do not cover. The amd64 half
// (simd_amd64.go + simd_*_amd64.s) provides the register-tiled kernels;
// simd_off.go turns the whole path off under `purego` or on other
// architectures, which is the mandatory fallback contract: with no
// kernels available pickTier never selects this tier and every GEMM runs
// on the blocked/naive engines unchanged.
//
// Kernel shape. The paper's embedding GEMMs are tall and skinny
// (M = atoms*neighbors rows, K in {1, 25, 50}, N in {25, 50, 100}) — too
// shallow for the packed three-level blocked engine, whose packing
// overhead is why BENCH_PR3-PR5 show it at 0.7-1.2x of naive there. The
// SIMD kernels skip packing entirely: an R-row strip of A is held as
// broadcast scalars while B streams row by row through vector registers,
// every (row, column-chunk) accumulator living in its own register chain.
// K stays resident in one loop (k <= simdMaxK covers the embedding and
// hidden fitting layers, 240 included, but not the first fitting layer,
// whose K is the descriptor dimension: 1600 for the paper's water and
// copper), so each strip makes exactly one pass over C: the epilogue —
// alpha/beta, bias add, tanh, tanh gradient — is applied in the store
// loop, and GemmBiasOpt/GemmBiasTanhGradOpt stop making a second pass
// over the output.
//
// Bit-exactness contract. Worker fan-out partitions rows in multiples of
// the strip height from row 0, so every row is computed by the same code
// path (same strip, same lane, or the same scalar model) at any worker
// count. The float64 scalar model reproduces the asm lanes operation for
// operation (math.FMA accumulation, the same epilogue arithmetic,
// tanhApprox64), so float64 results are bit-identical between a lane and
// a remainder cell; float32 remainders agree to within the documented
// differential tolerance (the f32 FMA double-rounding caveat in
// DESIGN.md).

// Epilogue modes of the tall-skinny kernels (tileArgs.mode).
const (
	epiNone     = 0 // C = alpha*acc + beta*C
	epiBias     = 1 // C = acc + bias   (acc seeded with bias, stored raw)
	epiTanh     = 2 // C = tanh(acc + bias)
	epiTanhGrad = 3 // epiTanh plus grad = 1 - C*C
)

const (
	// simdMaxK is the deepest reduction the kernels keep in one loop; the
	// packed blocked engine takes over beyond it (its kcBlock panels exist
	// for exactly that regime).
	simdMaxK = 256
	// simdNC is the column-chunk width: B chunks of k x simdNC stay hot
	// across row strips (<= 1 MB f64 at k = simdMaxK).
	simdNC = 512
	// simdParMin matches the blocked engine's serial threshold: below this
	// many FLOPs goroutine fan-out costs more than it saves.
	simdParMin = 1 << 21
)

// tileArgs is the argument block passed to every tall-skinny kernel. The
// field offsets are hard-coded in the .s files (TA_* defines) and asserted
// by TestTileArgsLayout. Strides are in elements; alpha/beta are always
// float64 (the f32 kernels narrow them once per call).
type tileArgs struct {
	a     unsafe.Pointer // strip's first A row (k elements, stride lda)
	b     unsafe.Pointer // B[0, j0] (k rows, stride ldb)
	c     unsafe.Pointer // C[i0, j0]
	bias  unsafe.Pointer // bias[j0] (modes >= epiBias)
	grad  unsafe.Pointer // grad[i0, j0] (mode epiTanhGrad)
	lda   uintptr
	ldb   uintptr
	ldc   uintptr
	ldg   uintptr
	k     uintptr
	n     uintptr // columns to produce (see simdKernelCaps.masked)
	alpha float64
	beta  float64
	mode  uintptr
}

// simdKernelCaps describes the tile geometry of one family/element-size
// pair, reported by the per-arch simdCaps.
type simdKernelCaps struct {
	rows   int  // asm strip height (rows per kernel call)
	cover  int  // column granularity: asm covers n &^ (cover-1)
	masked bool // asm covers every column (AVX-512 k-masked tails)
}

// simdTarget is the family a SIMD-tier call dispatches on and its caps
// for the call's element size. pickTier reads the active family once and
// hands the target to the kernels, so a concurrent cpufeat.SetActive
// cannot change the family between the tier decision and the execution.
type simdTarget struct {
	fam  cpufeat.Family
	caps simdKernelCaps
}

// simdActive returns the active family's target for element size es, or
// ok = false when the generic engines must be used.
func simdActive(es int) (simdTarget, bool) {
	fam := cpufeat.Active()
	if fam == cpufeat.Generic {
		return simdTarget{}, false
	}
	caps, ok := simdCaps(fam, es)
	return simdTarget{fam: fam, caps: caps}, ok
}

// covers reports whether the strips take a batch-1 item of layout l: the
// tall-skinny strips for N (K resident in one loop, at least one row strip
// and one column chunk), the 2x4 dot tile for NT (enough reduction depth
// to vectorize), nothing for TN. The epilogue modes share the N coverage:
// every family fuses bias, tanh and its gradient.
func (s simdTarget) covers(l layout, m, k, n int) bool {
	switch l {
	case layoutN:
		return k >= 1 && k <= simdMaxK && m >= s.caps.rows && n >= s.caps.cover
	case layoutNT:
		return k >= 8 && m >= 2 && n >= 4 && m*n*k >= 1<<13
	}
	return false
}

// gemmSIMD computes C = alpha*A*B + beta*C (epiNone) or one of the fused
// epilogues on target s's strips, for a shape s covers.
func gemmSIMD[T Float](s simdTarget, workers, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	fam, caps := s.fam, s.caps
	nStrips := m / caps.rows
	if 2*m*n*k < simdParMin {
		workers = 1
	}
	if workers > nStrips {
		workers = nStrips
	}
	if workers <= 1 {
		simdRowRange(fam, caps, 0, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
		return
	}
	simdRowsParallel(fam, caps, workers, nStrips, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
}

// simdRowsParallel fans row ranges out over a goroutine per worker. Ranges
// are multiples of the strip height measured from row 0, so strip/tail
// classification of every row is identical to the serial path — the
// worker-count bit-identity contract. A separate function so the serial
// path never allocates the closure.
func simdRowsParallel[T Float](fam cpufeat.Family, caps simdKernelCaps, workers, nStrips, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	per := (nStrips + workers - 1) / workers * caps.rows
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += per {
		hi := min(m, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			simdRowRange(fam, caps, lo, hi, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
		}(lo, hi)
	}
	wg.Wait()
}

// simdRowRange processes C rows [lo, hi), lo a multiple of caps.rows.
// Full strips go to the asm kernel (column chunks of simdNC so the B chunk
// stays cache-hot across strips); remainder rows and uncovered column
// tails go to the scalar model.
func simdRowRange[T Float](fam cpufeat.Family, caps simdKernelCaps, lo, hi, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	R := caps.rows
	full := lo + (hi-lo)/R*R
	var args tileArgs
	args.lda = uintptr(lda)
	args.ldb = uintptr(ldb)
	args.ldc = uintptr(ldc)
	args.ldg = uintptr(ldg)
	args.k = uintptr(k)
	args.alpha = float64(alpha)
	args.beta = float64(beta)
	args.mode = uintptr(mode)
	for j0 := 0; j0 < n; j0 += simdNC {
		jb := min(simdNC, n-j0)
		jCov := jb
		if !caps.masked {
			jCov = jb &^ (caps.cover - 1)
		}
		if jCov > 0 && full > lo {
			args.n = uintptr(jCov)
			args.b = unsafe.Pointer(&b[j0])
			if mode != epiNone {
				args.bias = unsafe.Pointer(&bias[j0])
			}
			for i := lo; i < full; i += R {
				args.a = unsafe.Pointer(&a[i*lda])
				args.c = unsafe.Pointer(&c[i*ldc+j0])
				if mode == epiTanhGrad {
					args.grad = unsafe.Pointer(&grad[i*ldg+j0])
				}
				tsTile[T](fam, &args)
			}
		}
		if jCov < jb {
			for i := lo; i < full; i++ {
				simdScalarRow(a[i*lda:i*lda+k], k, b, ldb, j0+jCov, j0+jb, c[i*ldc:], bias, mode, alpha, beta, gradRow(grad, i, ldg, mode))
			}
		}
	}
	for i := full; i < hi; i++ {
		simdScalarRow(a[i*lda:i*lda+k], k, b, ldb, 0, n, c[i*ldc:], bias, mode, alpha, beta, gradRow(grad, i, ldg, mode))
	}
}

func gradRow[T Float](grad []T, i, ldg, mode int) []T {
	if mode != epiTanhGrad {
		return nil
	}
	return grad[i*ldg:]
}

// simdScalarRow finishes one output row over columns [jlo, jhi) with the
// scalar model of the kernel lanes.
func simdScalarRow[T Float](ai []T, k int, b []T, ldb, jlo, jhi int, ci []T, bias []T, mode int, alpha, beta T, gi []T) {
	if a64, ok := any(ai).([]float64); ok {
		simdScalarRow64(a64, k, any(b).([]float64), ldb, jlo, jhi, any(ci).([]float64), any(bias).([]float64), mode, float64(alpha), float64(beta), any(gi).([]float64))
		return
	}
	simdScalarRow32(any(ai).([]float32), k, any(b).([]float32), ldb, jlo, jhi, any(ci).([]float32), any(bias).([]float32), mode, float64(alpha), float64(beta), any(gi).([]float32))
}

// simdScalarRow64 is the float64 lane model: bit-identical to the asm,
// with one carve-out — a NaN flowing into the tanh gradient keeps its
// payload, but the payload's sign bit may differ between hardware FMA and
// math.FMA (NaN propagation picks a different operand slot).
func simdScalarRow64(ai []float64, k int, b []float64, ldb, jlo, jhi int, ci []float64, bias []float64, mode int, alpha, beta float64, gi []float64) {
	for j := jlo; j < jhi; j++ {
		var acc float64
		if mode != epiNone {
			acc = bias[j]
		}
		for p := 0; p < k; p++ {
			acc = math.FMA(ai[p], b[p*ldb+j], acc)
		}
		switch mode {
		case epiNone:
			t := alpha * acc
			if beta == 0 {
				ci[j] = t
			} else {
				ci[j] = math.FMA(beta, ci[j], t)
			}
		case epiBias:
			ci[j] = acc
		case epiTanh:
			ci[j] = tanhApprox64(acc)
		case epiTanhGrad:
			y := tanhApprox64(acc)
			ci[j] = y
			gi[j] = math.FMA(-y, y, 1)
		}
	}
}

// simdScalarRow32 is the float32 lane model. The asm lanes use true
// single-rounded f32 FMA; emulating that exactly in Go is not possible
// (float32(math.FMA(...)) double-rounds in rare cases), so float32
// remainders agree with lanes to <= 1 ulp per operation — covered by the
// differential tolerance, never compared bitwise.
func simdScalarRow32(ai []float32, k int, b []float32, ldb, jlo, jhi int, ci []float32, bias []float32, mode int, alpha, beta float64, gi []float32) {
	a32, b32 := float32(alpha), float32(beta)
	for j := jlo; j < jhi; j++ {
		var acc float32
		if mode != epiNone {
			acc = bias[j]
		}
		for p := 0; p < k; p++ {
			acc = float32(math.FMA(float64(ai[p]), float64(b[p*ldb+j]), float64(acc)))
		}
		switch mode {
		case epiNone:
			t := a32 * acc
			if b32 == 0 {
				ci[j] = t
			} else {
				ci[j] = float32(math.FMA(float64(b32), float64(ci[j]), float64(t)))
			}
		case epiBias:
			ci[j] = acc
		case epiTanh:
			ci[j] = tanhApprox32(acc)
		case epiTanhGrad:
			y := tanhApprox32(acc)
			ci[j] = y
			gi[j] = float32(math.FMA(float64(-y), float64(y), 1))
		}
	}
}

// gemmNTSIMD computes C = alpha*A*B^T + beta*C on family fam's 2x4
// dot-product tile (lanes vectorized over K), for a shape its target covers.
func gemmNTSIMD[T Float](fam cpufeat.Family, workers, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	nPairs := m / 2
	if 2*m*n*k < simdParMin {
		workers = 1
	}
	if workers > nPairs {
		workers = nPairs
	}
	if workers <= 1 {
		ntRowRange(fam, 0, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	ntRowsParallel(fam, workers, nPairs, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
}

func ntRowsParallel[T Float](fam cpufeat.Family, workers, nPairs, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	per := (nPairs + workers - 1) / workers * 2
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += per {
		hi := min(m, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			ntRowRange(fam, lo, hi, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
		}(lo, hi)
	}
	wg.Wait()
}

// ntRowRange processes C rows [lo, hi), lo even: row pairs through the
// asm tile over columns [0, n&^3), the odd row tail and column tail
// through the scalar model.
func ntRowRange[T Float](fam cpufeat.Family, lo, hi, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	jCov := n &^ 3
	full := lo + (hi-lo)/2*2
	if jCov > 0 {
		var args tileArgs
		args.b = unsafe.Pointer(&b[0])
		args.lda = uintptr(lda)
		args.ldb = uintptr(ldb)
		args.ldc = uintptr(ldc)
		args.k = uintptr(k)
		args.n = uintptr(jCov)
		args.alpha = float64(alpha)
		args.beta = float64(beta)
		for i := lo; i < full; i += 2 {
			args.a = unsafe.Pointer(&a[i*lda])
			args.c = unsafe.Pointer(&c[i*ldc])
			ntTile[T](fam, &args)
		}
	}
	for i := lo; i < full; i++ {
		simdScalarNTRow(a[i*lda:i*lda+k], k, b, ldb, jCov, n, c[i*ldc:], alpha, beta)
	}
	for i := full; i < hi; i++ {
		simdScalarNTRow(a[i*lda:i*lda+k], k, b, ldb, 0, n, c[i*ldc:], alpha, beta)
	}
}

// simdScalarNTRow finishes one NT output row over columns [jlo, jhi),
// reproducing the asm's four-lane accumulate / pairwise combine / scalar
// K-tail order exactly (bit-identical for float64).
func simdScalarNTRow[T Float](ai []T, k int, b []T, ldb, jlo, jhi int, ci []T, alpha, beta T) {
	if a64, ok := any(ai).([]float64); ok {
		simdScalarNTRow64(a64, k, any(b).([]float64), ldb, jlo, jhi, any(ci).([]float64), float64(alpha), float64(beta))
		return
	}
	simdScalarNTRow32(any(ai).([]float32), k, any(b).([]float32), ldb, jlo, jhi, any(ci).([]float32), float64(alpha), float64(beta))
}

func simdScalarNTRow64(ai []float64, k int, b []float64, ldb, jlo, jhi int, ci []float64, alpha, beta float64) {
	kv := k &^ 3
	for j := jlo; j < jhi; j++ {
		bj := b[j*ldb : j*ldb+k]
		var s0, s1, s2, s3 float64
		for p := 0; p < kv; p += 4 {
			s0 = math.FMA(ai[p], bj[p], s0)
			s1 = math.FMA(ai[p+1], bj[p+1], s1)
			s2 = math.FMA(ai[p+2], bj[p+2], s2)
			s3 = math.FMA(ai[p+3], bj[p+3], s3)
		}
		sum := (s0 + s2) + (s1 + s3)
		for p := kv; p < k; p++ {
			sum = math.FMA(ai[p], bj[p], sum)
		}
		t := alpha * sum
		if beta == 0 {
			ci[j] = t
		} else {
			ci[j] = math.FMA(beta, ci[j], t)
		}
	}
}

func simdScalarNTRow32(ai []float32, k int, b []float32, ldb, jlo, jhi int, ci []float32, alpha, beta float64) {
	a32, b32 := float32(alpha), float32(beta)
	kv := k &^ 7
	fma := func(x, y, acc float32) float32 {
		return float32(math.FMA(float64(x), float64(y), float64(acc)))
	}
	for j := jlo; j < jhi; j++ {
		bj := b[j*ldb : j*ldb+k]
		var s [8]float32
		for p := 0; p < kv; p += 8 {
			for l := 0; l < 8; l++ {
				s[l] = fma(ai[p+l], bj[p+l], s[l])
			}
		}
		var v [4]float32
		for l := 0; l < 4; l++ {
			v[l] = s[l] + s[l+4]
		}
		sum := (v[0] + v[2]) + (v[1] + v[3])
		for p := kv; p < k; p++ {
			sum = fma(ai[p], bj[p], sum)
		}
		t := a32 * sum
		if b32 == 0 {
			ci[j] = t
		} else {
			ci[j] = fma(b32, ci[j], t)
		}
	}
}
