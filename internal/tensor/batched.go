package tensor

import (
	"fmt"
	"sync"
	"time"

	"deepmd-go/internal/perf"
)

// This file holds the strided-batched GEMM family. The paper's single-GPU
// speedup hinges on merging the per-atom embedding and descriptor matrices
// of many atoms into a handful of large GEMM launches (Sec. 5.3.1, Fig. 3);
// the CPU analogue is one call that runs every item of a batch of
// identically-shaped small products through one executor, instead of
// per-atom calls that each pay dispatch, timer and packing overhead.
//
// Layout: item g of an operand lives at data[g*stride:], so a batch is any
// constant-stride walk over one backing slice — contiguous arena buffers
// (stride == item size), padded rows (stride > item size, e.g. the ax x 4
// sub-matrix at the head of every m x 4 item), or one shared operand
// (stride == 0).
//
// Execution: gemm (gemm.go) picks one tier for the whole call. The packed
// engine flattens the batch into (item, C-row-block) work units and hands
// a contiguous range of units to each worker; the naive tier hands each
// worker a contiguous range of items on the layout-specialized reference
// loops (measured: the k = 4 outer-product and dG shapes are 1.4-3x
// faster there; the deep forward contractions 1.2-1.3x faster packed).
// Either way every C element is produced by exactly one worker with the
// same code path at every worker count, so results are bit-identical for
// any count. Kernel = Naive selects the strictly serial per-item reference
// loops (the differential oracle).

// GemmBatchOpt computes C_g = alpha*A_g*B_g + beta*C_g for g in [0, batch),
// where A_g is the m x k row-major matrix at a[g*as:], B_g the k x n matrix
// at b[g*bs:] and C_g the m x n matrix at c[g*cs:].
func GemmBatchOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatch", batch, m*k, as, len(a), k*n, bs, len(b), m*n, cs, len(c))
	start := time.Now()
	gemm(o, layoutN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchNTOpt computes C_g = alpha*A_g*B_g^T + beta*C_g, A_g: m x k at
// a[g*as:], B_g: n x k at b[g*bs:], C_g: m x n at c[g*cs:]. Used by the
// batched descriptor outer product D = T (T[:ax])^T and the backward
// contraction dG = R~ dT^T.
func GemmBatchNTOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchNT", batch, m*k, as, len(a), n*k, bs, len(b), m*n, cs, len(c))
	start := time.Now()
	gemm(o, layoutNT, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchTNOpt computes C_g = alpha*A_g^T*B_g + beta*C_g, A_g: m x k at
// a[g*as:], B_g: m x n at b[g*bs:], C_g: k x n at c[g*cs:]. Used by the
// batched forward descriptor contraction T = G^T R~ / N.
func GemmBatchTNOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchTN", batch, m*k, as, len(a), m*n, bs, len(b), k*n, cs, len(c))
	start := time.Now()
	gemm(o, layoutTN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs, nil, epiNone, nil)
	ctr.Observe(perf.CatGEMM, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// batchItem wraps item g's storage as a matrix view.
func batchItem[T Float](s []T, off, rows, cols int) Matrix[T] {
	return MatrixFrom(rows, cols, s[off:off+rows*cols])
}

// runBatchNaive executes every item on the layout-specialized naive
// kernels, partitioning contiguous item ranges over workers (<= 1
// serial). The per-item kernel is identical at every worker count, so
// results are bit-identical regardless of partitioning.
func runBatchNaive[T Float](workers int, l layout, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	if workers > batch {
		workers = batch
	}
	if 2*batch*m*n*k < 1<<21 {
		workers = 1
	}
	if workers <= 1 {
		batchNaiveRange(l, 0, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
		return
	}
	batchNaiveParallel(workers, l, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
}

// batchNaiveRange runs items [lo, hi) on the layout-specialized naive
// kernels.
func batchNaiveRange[T Float](l layout, lo, hi, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	switch l {
	case layoutN:
		for g := lo; g < hi; g++ {
			gemmNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, k, n), beta, batchItem(c, g*cs, m, n))
		}
	case layoutNT:
		for g := lo; g < hi; g++ {
			gemmNTNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, n, k), beta, batchItem(c, g*cs, m, n))
		}
	default:
		for g := lo; g < hi; g++ {
			gemmTNNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, m, n), beta, batchItem(c, g*cs, k, n))
		}
	}
}

// batchNaiveParallel fans contiguous item ranges out over a goroutine
// pool. Separate from runBatchNaive so the goroutine closure captures
// copies of these parameters and the serial path stays allocation-free.
func batchNaiveParallel[T Float](workers int, l layout, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	var wg sync.WaitGroup
	per := (batch + workers - 1) / workers
	for lo := 0; lo < batch; lo += per {
		hi := min(batch, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			batchNaiveRange(l, lo, hi, m, k, n, alpha, a, as, b, bs, beta, c, cs)
		}(lo, hi)
	}
	wg.Wait()
}

// checkBatch validates batch count, operand strides and backing lengths.
// Input strides may be zero (shared operand) or leave gaps; the output
// stride must be at least the item size so no C element belongs to two
// items.
func checkBatch(name string, batch, sizeA, as, lenA, sizeB, bs, lenB, sizeC, cs, lenC int) {
	if batch < 0 || as < 0 || bs < 0 || cs < 0 {
		panic(fmt.Sprintf("tensor: %s: negative batch or stride", name))
	}
	if batch > 1 && cs < sizeC {
		panic(fmt.Sprintf("tensor: %s: output stride %d smaller than item size %d", name, cs, sizeC))
	}
	if batch == 0 {
		return
	}
	if sizeA > 0 && (batch-1)*as+sizeA > lenA {
		panic(fmt.Sprintf("tensor: %s: A backing slice too short (%d for %d items of %d, stride %d)", name, lenA, batch, sizeA, as))
	}
	if sizeB > 0 && (batch-1)*bs+sizeB > lenB {
		panic(fmt.Sprintf("tensor: %s: B backing slice too short (%d for %d items of %d, stride %d)", name, lenB, batch, sizeB, bs))
	}
	if sizeC > 0 && (batch-1)*cs+sizeC > lenC {
		panic(fmt.Sprintf("tensor: %s: C backing slice too short (%d for %d items of %d, stride %d)", name, lenC, batch, sizeC, cs))
	}
}
