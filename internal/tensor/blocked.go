package tensor

import "sync"

// This file holds the cache-blocked, register-tiled GEMM engine, the
// packed tier of pickTier. The paper folds the whole embedding/fitting
// network into a handful of large GEMMs and reports GEMM as the dominant
// per-step cost (Sec. 5.3.1, Fig. 3); on a CPU the same dominance makes
// the matrix kernels the single largest speed lever.
//
// The scheme is the classic three-level blocking of high-performance BLAS:
//
//   - The K and N dimensions are tiled into kcBlock x ncBlock panels of B,
//     packed into a contiguous buffer ordered in nr-column strips so the
//     microkernel streams it linearly (L1-resident strip, L2/L3 panel).
//   - The M dimension is tiled into mcBlock-row blocks of A, packed (with
//     alpha folded in) into mr-row strips per worker.
//   - The innermost loop is an unrolled mr x nr = 2x4 register microkernel:
//     8 independent accumulator chains per 6 loads, versus the 1-2 of the
//     naive axpy/dot loops.
//
// One driver serves single and batched calls: the call is flattened into
// (item, C row block) work units and contiguous unit ranges go to a
// goroutine pool ("Workers", threaded from core.Config.Workers through the
// evaluator and trainer). Every C element is produced by exactly one unit
// with the same K-panel order at every worker count, so results are
// bit-identical for every worker count (asserted by the differential
// tests). Pack buffers are recycled through sync.Pools so the steady-state
// MD loop stays allocation-free (the arena story of Sec. 5.2.2).
//
// All three storage variants (A*B, A*B^T, A^T*B) run through one engine
// generalized over element strides: packing absorbs the transpose, the
// microkernel never sees it.

const (
	// mr x nr is the register microkernel tile. 2x4 keeps the 8 accumulator
	// chains plus the 6 operands inside amd64's 16 FP registers (a 4x4 tile
	// spills accumulators to the stack and runs slower than the naive
	// loops); 8 independent add chains also cover the 4-cycle FP-add
	// latency at 2 scalar FP ops per cycle.
	mr = 2
	nr = 4
	// mcBlock x kcBlock is the packed A block (per worker, ~256 KB f64);
	// kcBlock x ncBlock is the packed B panel. kcBlock covers every
	// embedding and hidden fitting layer (K <= 240) in one panel, but not
	// the first fitting layer, whose K is the descriptor dimension
	// M1*M2 = 1600 for the paper's water and copper: it runs 7 K panels,
	// and its tanh is a second pass over the output.
	mcBlock = 128
	kcBlock = 256
	ncBlock = 512
)

// packSlab is a pooled scratch buffer for packed panels.
type packSlab[T Float] struct{ buf []T }

var (
	packPool32 = sync.Pool{New: func() any { return new(packSlab[float32]) }}
	packPool64 = sync.Pool{New: func() any { return new(packSlab[float64]) }}
)

func packPoolFor[T Float]() *sync.Pool {
	var z T
	if sizeofT(z) == 4 {
		return &packPool32
	}
	return &packPool64
}

// getSlab fetches a pooled pack slab of at least n elements; growth is
// monotone power-of-two (see below), so the pooled population converges
// and the steady-state loop stops allocating.
//
//dp:warmup
func getSlab[T Float](n int) *packSlab[T] {
	p, _ := packPoolFor[T]().Get().(*packSlab[T])
	if p == nil {
		p = new(packSlab[T])
	}
	if cap(p.buf) < n {
		// Round the new capacity up to a power of two. Differently-shaped
		// GEMMs share the pool, so an exact-size slab handed to a larger
		// request would reallocate on the same calls every MD step; with
		// monotone power-of-two growth the pooled population converges to
		// the largest request classes (bounded by kcBlock*ncBlock) and the
		// steady-state loop stops allocating.
		c := 1
		for c < n {
			c <<= 1
		}
		p.buf = make([]T, c)
	}
	p.buf = p.buf[:n]
	return p
}

func putSlab[T Float](p *packSlab[T]) {
	packPoolFor[T]().Put(p)
}

// gemmBlocked runs every item of a call through the packed engine:
// C_g = alpha*A'_g*B'_g + beta*C_g where A'_g is m x k with
// A'_g[i,p] = a[g*as + i*ari + p*arp], B'_g is k x n with
// B'_g[p,j] = b[g*bs + p*brp + j*brj], and C_g is row-major at c[g*cs:]
// with leading dimension ldc. A single GEMM is a batch of one. Work units
// are (item, mcBlock row block) pairs; workers <= 1 runs them serially in
// order.
func gemmBlocked[T Float](workers, batch, m, n, k int, alpha T, a []T, as, ari, arp int, b []T, bs, brp, brj int, beta T, c []T, cs, ldc int) {
	if batch == 0 || m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		for g := 0; g < batch; g++ {
			scaleC(beta, c[g*cs:], m, n, ldc)
		}
		return
	}
	nib := (m + mcBlock - 1) / mcBlock
	units := batch * nib
	if workers > units {
		workers = units
	}
	// The pool only pays off with enough total work across the call.
	if 2*batch*m*n*k < 1<<21 {
		workers = 1
	}
	// Note: the pack slabs are released with explicit putSlab calls, not
	// defer — deferring a generic call captures the type dictionary into a
	// heap-allocated closure, which would break the allocation-free steady
	// state the MD loop depends on.
	if workers <= 1 {
		bslab, aslab := blockedSlabs[T](n, k)
		blockedUnits(0, units, nib, m, n, k, alpha, a, as, ari, arp, b, bs, brp, brj, beta, c, cs, ldc, bslab.buf, aslab.buf)
		putSlab(aslab)
		putSlab(bslab)
		return
	}
	var wg sync.WaitGroup
	per := (units + workers - 1) / workers
	for lo := 0; lo < units; lo += per {
		hi := min(units, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			bslab, aslab := blockedSlabs[T](n, k)
			blockedUnits(lo, hi, nib, m, n, k, alpha, a, as, ari, arp, b, bs, brp, brj, beta, c, cs, ldc, bslab.buf, aslab.buf)
			putSlab(aslab)
			putSlab(bslab)
		}(lo, hi)
	}
	wg.Wait()
}

// blockedSlabs acquires one pack-slab pair sized for the whole unit range
// of a worker: reused across every item the worker processes.
func blockedSlabs[T Float](n, k int) (bslab, aslab *packSlab[T]) {
	bslab = getSlab[T](min(k, kcBlock) * ((min(n, ncBlock) + nr - 1) / nr * nr))
	aslab = getSlab[T](mcBlock * min(k, kcBlock))
	return bslab, aslab
}

// blockedUnits processes work units [lo, hi). Unit u is C row block
// u%nib of item u/nib. For each item the range touches, every B panel is
// packed once into the caller's slab and swept over the range's row
// blocks of that item; each C element sees the K panels in ascending
// order whatever the partition, which is what makes the engine
// bit-identical at every worker count.
func blockedUnits[T Float](lo, hi, nib, m, n, k int, alpha T, a []T, as, ari, arp int, b []T, bs, brp, brj int, beta T, c []T, cs, ldc int, bbufAll, abuf []T) {
	for u := lo; u < hi; {
		g := u / nib
		end := min(hi, (g+1)*nib)
		i0, i1 := (u-g*nib)*mcBlock, min(m, (end-g*nib)*mcBlock)
		ag, bg, cg := a[g*as:], b[g*bs:], c[g*cs:]
		for j0 := 0; j0 < n; j0 += ncBlock {
			jb := min(ncBlock, n-j0)
			jTiles := (jb + nr - 1) / nr
			for p0 := 0; p0 < k; p0 += kcBlock {
				kb := min(kcBlock, k-p0)
				bbuf := bbufAll[:jTiles*kb*nr]
				packBPanel(bbuf, bg, j0, jb, p0, kb, brp, brj)
				betaEff := beta
				if p0 > 0 {
					betaEff = 1
				}
				blockedRows(i0, i1, jb, kb, j0, p0, alpha, ag, ari, arp, bbuf, jTiles, betaEff, cg, ldc, abuf)
			}
		}
		u = end
	}
}

// blockedRows multiplies C rows [lo, hi) (lo a multiple of mcBlock) by
// one packed B panel, packing each mcBlock row block of A into abuf (at
// least mcBlock*kb elements).
func blockedRows[T Float](lo, hi, jb, kb, j0, p0 int, alpha T, a []T, ari, arp int, bbuf []T, jTiles int, beta T, c []T, ldc int, abuf []T) {
	for i0 := lo; i0 < hi; i0 += mcBlock {
		ib := min(mcBlock, hi-i0)
		ap := abuf[:((ib+mr-1)/mr*mr)*kb]
		packABlock(ap, a, alpha, i0, ib, p0, kb, ari, arp)
		iTiles := (ib + mr - 1) / mr
		for jt := 0; jt < jTiles; jt++ {
			jw := min(nr, jb-jt*nr)
			bp := bbuf[jt*kb*nr : (jt+1)*kb*nr]
			for it := 0; it < iTiles; it++ {
				iw := min(mr, ib-it*mr)
				acc := microKernel(kb, ap[it*kb*mr:(it+1)*kb*mr], bp)
				writeTile(c, ldc, i0+it*mr, j0+jt*nr, iw, jw, beta, &acc)
			}
		}
	}
}

// packABlock copies A' rows [i0, i0+ib) x cols [p0, p0+kb) into dst in
// mr-row strips ordered p-major, folding alpha in and zero-padding the row
// remainder so the microkernel never branches on edges.
func packABlock[T Float](dst []T, a []T, alpha T, i0, ib, p0, kb, ari, arp int) {
	for it := 0; it*mr < ib; it++ {
		rows := min(mr, ib-it*mr)
		strip := dst[it*kb*mr:]
		base := (i0 + it*mr) * ari
		for p := 0; p < kb; p++ {
			off := p * mr
			src := base + (p0+p)*arp
			for ii := 0; ii < rows; ii++ {
				strip[off+ii] = alpha * a[src+ii*ari]
			}
			for ii := rows; ii < mr; ii++ {
				strip[off+ii] = 0
			}
		}
	}
}

// packBPanel copies B' rows [p0, p0+kb) x cols [j0, j0+jb) into dst in
// nr-column strips ordered p-major, zero-padding the column remainder.
func packBPanel[T Float](dst []T, b []T, j0, jb, p0, kb, brp, brj int) {
	for jt := 0; jt*nr < jb; jt++ {
		cols := min(nr, jb-jt*nr)
		strip := dst[jt*kb*nr:]
		base := (j0 + jt*nr) * brj
		for p := 0; p < kb; p++ {
			off := p * nr
			src := (p0+p)*brp + base
			for jj := 0; jj < cols; jj++ {
				strip[off+jj] = b[src+jj*brj]
			}
			for jj := cols; jj < nr; jj++ {
				strip[off+jj] = 0
			}
		}
	}
}

// microKernel accumulates a full mr x nr tile over kb packed steps. The 8
// accumulators are independent chains, giving the instruction-level
// parallelism the naive loops lack; loading the highest index of each
// strip first lets the compiler elide the remaining bounds checks. The
// float64 instantiation routes through microKernel64, which dispatches at
// runtime to the micro2x4FMA assembly tile on amd64 hosts with FMA and to
// this portable mul-add kernel everywhere else — a math.FMA that carries a
// per-op feature-check branch runs slower than separate multiply and add
// (measured, see DESIGN.md).
func microKernel[T Float](kb int, ap, bp []T) [mr * nr]T {
	if a64, ok := any(ap).([]float64); ok {
		r := microKernel64(kb, a64, any(bp).([]float64))
		return any(r).([mr * nr]T)
	}
	return microKernelMulAdd(kb, ap, bp)
}

// microKernelMulAdd is the portable mul-add microkernel (always the
// float32 path; the float64 path without the amd64 FMA tile).
func microKernelMulAdd[T Float](kb int, ap, bp []T) [mr * nr]T {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	ap = ap[:kb*mr]
	bp = bp[:kb*nr]
	for len(ap) >= 2*mr {
		a1, a0 := ap[1], ap[0]
		b3, b2, b1, b0 := bp[3], bp[2], bp[1], bp[0]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a1, a0 = ap[3], ap[2]
		b3, b2, b1, b0 = bp[7], bp[6], bp[5], bp[4]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[2*mr:]
		bp = bp[2*nr:]
	}
	if len(ap) >= mr {
		a1, a0 := ap[1], ap[0]
		b3, b2, b1, b0 := bp[3], bp[2], bp[1], bp[0]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	return [mr * nr]T{
		c00, c01, c02, c03,
		c10, c11, c12, c13,
	}
}

// writeTile merges an accumulated tile into C rows [i, i+iw) x cols
// [j, j+jw), applying beta once per k-panel pass (0 overwrite, 1
// accumulate, otherwise scale-and-add).
func writeTile[T Float](c []T, ldc, i, j, iw, jw int, beta T, acc *[mr * nr]T) {
	for ii := 0; ii < iw; ii++ {
		row := c[(i+ii)*ldc+j : (i+ii)*ldc+j+jw]
		av := acc[ii*nr : ii*nr+nr]
		switch beta {
		case 0:
			for jj := range row {
				row[jj] = av[jj]
			}
		case 1:
			for jj := range row {
				row[jj] += av[jj]
			}
		default:
			for jj := range row {
				row[jj] = beta*row[jj] + av[jj]
			}
		}
	}
}

// scaleC applies C = beta*C over an m x n window with leading dimension
// ldc (the k == 0 / alpha == 0 degenerate cases).
func scaleC[T Float](beta T, c []T, m, n, ldc int) {
	if beta == 1 {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			clear(row)
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}
