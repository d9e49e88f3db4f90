package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// Frame describes one independent system inside a batch-of-frames
// evaluation: the same arguments one Compute call takes, plus the Result
// the frame's energies, forces and virial land in. Frames in one batch
// share nothing but the model.
type Frame struct {
	Pos   []float64
	Types []int
	Nloc  int
	List  *neighbor.List
	Box   *neighbor.Box
	Out   *Result
}

// frameState is the persistent per-frame-slot state of ComputeBatch:
// every frame of a call has its environment, precision-converted rows and
// network derivative alive through the shared chunk sweep. Slots are
// reused across calls (slot i serves frame i, and a one-frame Compute
// uses slot 0), so a steady stream of equally-shaped calls allocates
// nothing after warmup.
type frameState[T tensor.Float] struct {
	sc     descriptor.Scratch
	env    *descriptor.EnvOut
	rT     []T
	ndT    []T
	nd64   []float64
	byType [][]int
	jobs   []chunkJob
	chunkE []float64
}

func newFrameState[T tensor.Float](nt int) *frameState[T] {
	return &frameState[T]{byType: make([][]int, nt)}
}

// batchJob addresses one chunk of one frame in the cross-frame sweep.
type batchJob struct {
	fi, ji int
}

// ComputeBatch evaluates every frame in one call, fanning the chunks of
// ALL frames over the evaluator's worker budget as a single sweep — the
// serving-path entry point that lets concurrent small requests share the
// strided-batch pipeline instead of each paying its own under-filled
// sweep. Compute is the one-frame case.
//
// Results are bit-identical to evaluating each frame with its own serial
// Compute call, at every batch size: chunks never straddle frames (each
// frame is grouped, chunked and reduced in its own buffers), every
// chunk's computation is self-contained and deterministic at any worker
// count, and each frame's energy reduction and force/virial operators run
// serially per frame in chunk order. Only the scheduling of chunks across
// workers changes with the batch size.
//
// Per-frame errors are wrapped as "core: frame %d: ..." (errors.Is sees
// the wrapped cause). On error, the frames' Result buffers are in an
// unspecified intermediate state. ComputeBatch is single-goroutine;
// concurrent batches go through an Engine.
func (ev *Evaluator[T]) ComputeBatch(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	ctr := ev.Counter
	nt := ev.cfg.NumTypes()
	stride := ev.cfg.Stride()
	for len(ev.frames) < len(frames) {
		ev.frames = append(ev.frames, newFrameState[T](nt))
	}

	// Stage 1 — per-frame preamble into each frame slot's own buffers:
	// environment, precision conversion, grouping by type, chunk-job
	// assembly, output sizing.
	ev.batchJobs = ev.batchJobs[:0]
	for fi := range frames {
		f := &frames[fi]
		if f.Out == nil {
			return fmt.Errorf("core: frame %d has no Result", fi)
		}
		fs := ev.frames[fi]
		env, err := fs.sc.Environment(ctr, ev.dcfg, f.Pos, f.Types, f.List, f.Box)
		if err != nil {
			return fmt.Errorf("core: frame %d: %w", fi, err)
		}
		fs.env = env
		fs.rT = descriptor.ConvertR(ctr, env, fs.rT)
		fs.ndT = tensor.Resize(fs.ndT, f.Nloc*stride*4)
		clear(fs.ndT)
		for t := range fs.byType {
			fs.byType[t] = fs.byType[t][:0]
		}
		for i := 0; i < f.Nloc; i++ {
			t := f.Types[i]
			if t < 0 || t >= nt {
				return fmt.Errorf("core: frame %d: atom %d has type %d outside model", fi, i, t)
			}
			fs.byType[t] = append(fs.byType[t], i)
		}
		nall := len(f.Pos) / 3
		f.Out.AtomEnergy = tensor.Resize(f.Out.AtomEnergy, f.Nloc)
		f.Out.Force = tensor.Resize(f.Out.Force, 3*nall)
		clear(f.Out.Force)
		fs.jobs = fs.jobs[:0]
		for ci, atoms := range fs.byType {
			for lo := 0; lo < len(atoms); lo += ev.cfg.ChunkSize {
				hi := min(lo+ev.cfg.ChunkSize, len(atoms))
				fs.jobs = append(fs.jobs, chunkJob{ci, atoms[lo:hi]})
			}
		}
		fs.chunkE = tensor.Resize(fs.chunkE, len(fs.jobs))
		for ji := range fs.jobs {
			ev.batchJobs = append(ev.batchJobs, batchJob{fi, ji})
		}
	}

	// Stage 2 — one sweep over every frame's chunks. This is where the
	// cross-request amortization happens: a handful of small frames fill
	// the worker pool (and one evaluator's caches) the way one large
	// system would, instead of each frame paying an under-filled sweep.
	// With enough chunks they fan out over the worker arenas and each
	// GEMM stays serial; when the sweep degenerates to serial (Workers =
	// 1, or too few chunks to fill the pool) the worker budget goes to
	// the blocked GEMM kernels instead, which partition (batch x
	// row-block) units across goroutines.
	workers := min(len(ev.arenas), len(ev.batchJobs))
	if workers <= 1 {
		opts := tensor.Opts{Workers: ev.gemmWorkers}
		for _, bj := range ev.batchJobs {
			ev.runJob(opts, ev.scratch[0], ev.arenas[0], frames, bj)
		}
	} else {
		ev.sweepParallel(workers, frames)
	}

	// Stage 3 — per-frame reductions and customized operators, serial
	// and in chunk order so the double-precision sums associate the same
	// way at every batch size and worker count.
	for fi := range frames {
		f := &frames[fi]
		fs := ev.frames[fi]
		out := f.Out
		out.Energy = 0
		for _, e := range fs.chunkE[:len(fs.jobs)] {
			out.Energy += e
		}
		fs.nd64 = tensor.Resize(fs.nd64, len(fs.ndT))
		for i, v := range fs.ndT {
			fs.nd64[i] = float64(v)
		}
		descriptor.ProdForce(ctr, fs.nd64, fs.env, out.Force)
		out.Virial = descriptor.ProdVirial(ctr, fs.nd64, fs.env)
		repulsionEnergy(ctr, ev.cfg.RepA, ev.cfg.RepRcut, f.Pos, f.Nloc, f.List, f.Box, out)
	}
	ev.growArenas()
	return nil
}

// runJob evaluates one chunk of one frame on a worker's scratch and arena.
func (ev *Evaluator[T]) runJob(opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], frames []Frame, bj batchJob) {
	fs := ev.frames[bj.fi]
	j := fs.jobs[bj.ji]
	fs.chunkE[bj.ji] = ev.evalChunk(ev.Counter, opts, ws, ar, fs.env, fs.rT, fs.ndT, j.ci, j.atoms, frames[bj.fi].Out.AtomEnergy)
}

// sweepParallel runs the batch jobs on workers goroutines, each with its
// own scratch and arena. The GEMM budget left over is split as intra-GEMM
// workers, so e.g. Workers=8 over 2 chunks still uses 8 cores (2 chunk
// goroutines x 4 GEMM row-block goroutines each). Jobs are claimed from
// an atomic cursor; every chunk's computation is self-contained and
// deterministic, so results do not depend on which worker claims it.
func (ev *Evaluator[T]) sweepParallel(workers int, frames []Frame) {
	opts := tensor.Opts{Workers: ev.gemmWorkers / workers}
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ws *evalScratch[T], ar *tensor.Arena[T]) {
			defer wg.Done()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= len(ev.batchJobs) {
					return
				}
				ev.runJob(opts, ws, ar, frames, ev.batchJobs[bi])
			}
		}(ev.scratch[w], ev.arenas[w])
	}
	wg.Wait()
}

// frameComputer is implemented by pooled computers that can evaluate a
// batch of frames in one sweep (the optimized Evaluator in either
// precision). The BaselineEvaluator predates batching and falls back to a
// per-frame loop in Engine.ComputeBatch.
type frameComputer interface {
	ComputeBatch(frames []Frame) error
}

// ComputeBatch evaluates a batch of independent frames on ONE borrowed
// evaluator as a single chunk sweep — the engine-level seam the
// cross-request micro-batcher (internal/serve) coalesces concurrent small
// requests through. Goroutine-safe like Compute; results are bit-identical
// to per-frame Compute calls at every batch size (see
// Evaluator.ComputeBatch). Baseline-strategy engines evaluate the frames
// sequentially on the borrowed evaluator, which is the same thing by
// definition.
func (e *Engine) ComputeBatch(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	c, err := e.acquire()
	if err != nil {
		return err
	}
	defer e.release(c)
	if fc, ok := c.(frameComputer); ok {
		return fc.ComputeBatch(frames)
	}
	for i := range frames {
		f := &frames[i]
		if f.Out == nil {
			return fmt.Errorf("core: frame %d has no Result", i)
		}
		if err := c.Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, f.Out); err != nil {
			return err
		}
	}
	return nil
}
