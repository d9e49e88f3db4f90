package core

import (
	"time"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// Result holds one potential evaluation. Force has 3*nall entries: forces
// on ghost atoms are accumulated too and must be reverse-communicated by
// the caller in domain-decomposed runs (Sec. 5.4).
type Result struct {
	Energy     float64
	AtomEnergy []float64
	Force      []float64
	Virial     [9]float64
}

// Evaluator executes the optimized Deep Potential pipeline in precision T:
// float64 for the double-precision model, float32 for the mixed-precision
// model (network math in single precision between the double-precision
// Environment and ProdForce boundaries, Sec. 5.2.3).
//
// The descriptor stage runs chunk-batched (Sec. 5.3.1): the embedding
// outputs, environment rows and descriptor matrices of every atom in a
// chunk are laid out contiguously in the arena and contracted with a
// handful of strided-batched GEMM calls, instead of four per-atom loops of
// tiny products. SetPerAtomDescriptors restores the per-atom loops — the
// differential oracle and the 2018-granularity reference — and
// SetCompressedEmbedding replaces the embedding networks with tabulated
// piecewise quintics (internal/compress), the third execution strategy.
//
// There is one per-call pipeline, ComputeBatch: environment, precision
// conversion and chunking per frame, one chunk sweep over every frame's
// chunks, then per-frame reductions. Compute is its one-frame case.
//
// Concurrency contract: a raw Evaluator is SINGLE-GOROUTINE. It owns
// persistent arenas, traces and result staging buffers (the zero-alloc
// steady state depends on them), so two goroutines calling Compute on the
// same instance race on every one of them. Workers only parallelizes the
// inside of one Compute call. Callers that need concurrent evaluations —
// serving N systems, replica ensembles — go through an Engine, which
// pools one evaluator per in-flight call and is goroutine-safe
// (TestEngineConcurrentBitIdentical exercises this under -race).
type Evaluator[T tensor.Float] struct {
	cfg    Config
	dcfg   descriptor.Config
	master *Model
	embed  [][]*nn.Net[T]
	fit    []*nn.Net[T]

	// Counter receives FLOPs and per-category operator times; nil is
	// allowed.
	Counter *perf.Counter

	grads   *ModelGrads
	arenas  []*tensor.Arena[T]
	scratch []*evalScratch[T]
	// strat is the resolved descriptor execution strategy (never Auto or
	// Baseline here; the BaselineEvaluator is a separate type).
	strat Strategy
	// comp[ci][tj] is the tabulated embedding net for (center, neighbor)
	// type pair, populated by SetCompressedEmbedding.
	comp [][]*compress.Table[T]

	// gemmWorkers is the row-block goroutine count handed to the blocked
	// GEMM kernels when the chunk loop runs serially (defaults to
	// cfg.Workers; see ComputeBatch).
	gemmWorkers int

	// frames and batchJobs are the persistent per-call state: one buffer
	// slot per frame of the largest batch served so far, plus the
	// flattened (frame, chunk) job list of the cross-frame sweep. one is
	// the frame Compute hands to ComputeBatch, so a single-frame call
	// builds no slice; slot 0 serves single and batched calls alike.
	frames    []*frameState[T]
	batchJobs []batchJob
	one       [1]Frame
}

// chunkJob is one same-type atom chunk of an evaluation.
type chunkJob struct {
	ci    int
	atoms []int
}

// evalScratch is the per-worker reusable state of evalChunk: network
// traces and per-section buffer views live here instead of being
// re-allocated every chunk, so the steady-state MD step performs no heap
// allocation (the paper's init-time memory-trunk strategy, Sec. 5.2.2;
// asserted by TestComputeZeroAllocSteadyState).
type evalScratch[T tensor.Float] struct {
	embTr []*nn.Trace[T] // one per neighbor-type section
	fitTr nn.Trace[T]
	secR  [][]T              // gathered environment rows per section, arena-backed
	secS  []tensor.Matrix[T] // gathered s-inputs per section, arena-backed
	secG  [][]T              // embedding outputs per section (trace views)
	secDG [][]T              // tabulated dG/ds per section (compressed path), arena-backed
}

func newEvalScratch[T tensor.Float](nt int) *evalScratch[T] {
	ws := &evalScratch[T]{
		embTr: make([]*nn.Trace[T], nt),
		secR:  make([][]T, nt),
		secS:  make([]tensor.Matrix[T], nt),
		secG:  make([][]T, nt),
		secDG: make([][]T, nt),
	}
	for tj := range ws.embTr {
		ws.embTr[tj] = new(nn.Trace[T])
	}
	return ws
}

// NewEvaluator builds an evaluator for the model in precision T, converting
// the master weights once at construction.
func NewEvaluator[T tensor.Float](m *Model) *Evaluator[T] {
	cfg := m.Cfg
	nt := cfg.NumTypes()
	ev := &Evaluator[T]{
		cfg: cfg,
		dcfg: descriptor.Config{
			Rcut:     cfg.Rcut,
			RcutSmth: cfg.RcutSmth,
			Sel:      cfg.Sel,
		},
		master: m,
		embed:  make([][]*nn.Net[T], nt),
		fit:    make([]*nn.Net[T], nt),
	}
	for ci := 0; ci < nt; ci++ {
		ev.embed[ci] = make([]*nn.Net[T], nt)
		for tj := 0; tj < nt; tj++ {
			ev.embed[ci][tj] = shareOrConvert[T](m.Embed[ci][tj])
		}
		ev.fit[ci] = shareOrConvert[T](m.Fit[ci])
	}
	for w := 0; w < max(1, cfg.Workers); w++ {
		ev.arenas = append(ev.arenas, tensor.NewArena[T](1<<14))
		ev.scratch = append(ev.scratch, newEvalScratch[T](nt))
	}
	ev.gemmWorkers = max(1, cfg.Workers)
	ev.strat = StrategyBatched
	return ev
}

// SetGemmWorkers overrides the goroutine count the blocked GEMM kernels
// use when the chunk loop is serial. The trainer uses this: parameter
// gradients require a serial evaluator (Workers = 1), but row-block
// parallelism inside each GEMM call is safe — every C element is written
// by exactly one goroutine and results are bit-identical across worker
// counts — so training still spreads the dominant matrix math over cores.
func (ev *Evaluator[T]) SetGemmWorkers(n int) {
	ev.gemmWorkers = max(1, n)
}

// SetPerAtomDescriptors switches the descriptor stage between the default
// chunk-batched GEMMs and the retained per-atom reference loops (the
// computational granularity the 2018 DeePMD-kit used, and the differential
// oracle the equivalence tests compare against). The mathematics is
// identical; only the execution strategy changes. Turning the per-atom
// path off restores the exact chunk-batched pipeline, also when the
// evaluator was previously compressed.
func (ev *Evaluator[T]) SetPerAtomDescriptors(on bool) {
	if on {
		ev.strat = StrategyPerAtom
	} else {
		ev.strat = StrategyBatched
	}
}

// CurrentStrategy reports the resolved descriptor execution strategy the
// evaluator is running (Batched, PerAtom or Compressed).
func (ev *Evaluator[T]) CurrentStrategy() Strategy { return ev.strat }

// ArenaBytes reports the total arena slab size; the mixed-precision
// evaluator's is about half the double one's (Sec. 7.1.3).
func (ev *Evaluator[T]) ArenaBytes() int {
	total := 0
	for _, a := range ev.arenas {
		total += a.Bytes()
	}
	return total
}

// Compute evaluates energy, forces and virial: the one-frame case of
// ComputeBatch. pos holds 3*nall positions (locals first, then ghosts),
// types their types, nloc the number of local atoms owned by this rank,
// list the raw neighbor list built at the last rebuild, and box the
// periodic box (nil in domain-decomposed mode where ghosts carry the
// periodic images). The result buffers are reused if adequately sized;
// after the first call has warmed the arenas and scratch, a steady-state
// serial Compute performs no heap allocation.
func (ev *Evaluator[T]) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	ev.one[0] = Frame{Pos: pos, Types: types, Nloc: nloc, List: list, Box: box, Out: out}
	err := ev.ComputeBatch(ev.one[:])
	// Drop the caller's buffers so the evaluator does not retain them.
	ev.one[0] = Frame{}
	return err
}

// evalChunk runs embedding, descriptor, fitting and their backward passes
// for one chunk of same-type atoms, returning the chunk energy in double
// precision and filling atomEnergy and ndT rows for those atoms. opts
// carries the GEMM worker budget (serial when chunk-level parallelism is
// already using the cores). rT and ndT are the environment matrix and
// network-derivative buffers of the frame the chunk belongs to, so chunks
// of different frames can share one worker sweep without sharing state.
//
//dp:noalloc
func (ev *Evaluator[T]) evalChunk(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	if ev.strat == StrategyPerAtom {
		//dp:allow noalloc the per-atom oracle keeps 2018 granularity and allocates by design
		return ev.evalChunkPerAtom(ctr, opts, ar, env, rT, ndT, ci, atoms, atomEnergy)
	}
	return ev.evalChunkBatched(ctr, opts, ws, ar, env, rT, ndT, ci, atoms, atomEnergy)
}

// evalChunkBatched is the chunk-batched descriptor pipeline: one strided-
// batched GEMM per contraction over the whole chunk, operands contiguous
// in the arena (Sec. 5.3.1's "merge matrices of multiple atoms into one
// bigger matrix", Fig. 3's GEMM consolidation).
//
// Notation per atom a of the chunk (all nA atoms share type ci):
//
//	G_tj = embed(s)        nA*sel_tj x m   (one net forward per section)
//	T_a  = sum_tj G^T R~/N      m x 4      GemmBatchTN, accumulated over tj
//	D_a  = T_a (T_a[:ax])^T     m x ax     GemmBatchNT, B = head of T buffer
//	E    = fit(D)               nA x 1
//	dT_a = dD_a T_a[:ax] (+ head += dD_a^T T_a)   GemmBatch + GemmBatchTN
//	dG_a = R~ dT^T / N     sel x m         GemmBatchNT
//	dR_a = G dT / N        sel x 4         GemmBatch, scattered into ndT
func (ev *Evaluator[T]) evalChunkBatched(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	defer ar.Reset()
	cfg := &ev.cfg
	stride := cfg.Stride()
	m := cfg.M()
	ax := cfg.MAxis
	dim := cfg.DescriptorDim()
	nA := len(atoms)
	fmtd := env.Fmt
	invN := T(1.0 / float64(stride))
	nt := cfg.NumTypes()

	// Gather each section's environment rows and s-inputs into contiguous
	// chunk-major buffers, then run the embedding net over the whole
	// section batch. The gathers are bandwidth-bound data movement and
	// count under SLICE so the Fig. 3 attribution of the batched pipeline
	// stays honest (the batched GEMMs themselves report under GEMM).
	gatherStart := timeIf(ctr)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		off := fmtd.SelOff[tj]
		sIn := ar.TakeMatrixUninit(nA*sel, 1)
		rSec := ar.TakeUninit(nA * sel * 4)
		for a, atom := range atoms {
			base := (atom*stride + off) * 4
			copy(rSec[a*sel*4:(a+1)*sel*4], rT[base:base+sel*4])
			for k := 0; k < sel; k++ {
				sIn.Data[a*sel+k] = rT[base+k*4]
			}
		}
		ws.secR[tj] = rSec
		ws.secS[tj] = sIn
	}
	observeSlice(ctr, gatherStart)
	compressed := ev.strat == StrategyCompressed
	for tj := 0; tj < nt; tj++ {
		if compressed {
			// Tabulated embedding: one Horner sweep yields the section's
			// values AND its s-derivatives — the latter are the whole
			// embedding backward pass (see the dot product below).
			sel := cfg.Sel[tj]
			g := ar.TakeUninit(nA * sel * m)
			dg := ar.TakeUninit(nA * sel * m)
			ev.comp[ci][tj].EvalBatch(ctr, ws.secS[tj].Data, g, dg)
			ws.secG[tj], ws.secDG[tj] = g, dg
			continue
		}
		ws.secG[tj] = ev.embed[ci][tj].ForwardInto(ws.embTr[tj], ctr, opts, ar, ws.secS[tj], true).Out().Data
	}

	// Forward descriptor contraction T_a = sum_tj G_a^T R~_a / N as one
	// batched GEMM per section, accumulating across sections (beta = 1
	// after the first), then the batched outer product
	// D_a = T_a (T_a[:ax])^T — B is the ax x 4 head of each T item, an
	// under-full stride into the same buffer.
	tis := ar.TakeUninit(nA * m * 4)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		beta := T(1)
		if tj == 0 {
			beta = 0
		}
		tensor.GemmBatchTNOpt(opts, ctr, nA, sel, m, 4, invN, ws.secG[tj], sel*m, ws.secR[tj], sel*4, beta, tis, m*4)
	}
	dChunk := ar.TakeMatrixUninit(nA, dim)
	tensor.GemmBatchNTOpt(opts, ctr, nA, m, 4, ax, 1, tis, m*4, tis, m*4, 0, dChunk.Data, dim)

	// Fitting net forward/backward over the chunk batch.
	fitTr := ev.fit[ci].ForwardInto(&ws.fitTr, ctr, opts, ar, dChunk, true)
	eOut := fitTr.Out()
	var chunkE float64
	for a, atom := range atoms {
		e := float64(eOut.Data[a])
		atomEnergy[atom] = e
		chunkE += e
	}
	ones := ar.TakeMatrixUninit(nA, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	_, fitGr := ev.gradsFor(ci, 0)
	dD := ev.fit[ci].Backward(ctr, opts, ar, fitTr, ones, fitGr)

	// Batched backward through the descriptor contraction:
	// dT_a = dD_a T_a[:ax], plus dD_a^T T_a added into the first ax rows.
	dT := ar.TakeUninit(nA * m * 4)
	tensor.GemmBatchOpt(opts, ctr, nA, m, ax, 4, 1, dD.Data, dim, tis, m*4, 0, dT, m*4)
	dTsub := ar.TakeUninit(nA * ax * 4)
	tensor.GemmBatchTNOpt(opts, ctr, nA, m, ax, 4, 1, dD.Data, dim, tis, m*4, 0, dTsub, ax*4)
	for a := 0; a < nA; a++ {
		dst := dT[a*m*4 : a*m*4+ax*4]
		src := dTsub[a*ax*4 : (a+1)*ax*4]
		for i, v := range src {
			dst[i] += v
		}
	}

	// Per-section backward: batched dG and dR~ contractions, embedding net
	// backward over the section batch, then one scatter into the network
	// derivative ev.ndT (rows disjoint across chunks and sections).
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		off := fmtd.SelOff[tj]
		dG := ar.TakeMatrixUninit(nA*sel, m)
		tensor.GemmBatchNTOpt(opts, ctr, nA, sel, 4, m, invN, ws.secR[tj], sel*4, dT, m*4, 0, dG.Data, sel*m)
		ndSec := ar.TakeUninit(nA * sel * 4)
		tensor.GemmBatchOpt(opts, ctr, nA, sel, m, 4, invN, ws.secG[tj], sel*m, dT, m*4, 0, ndSec, sel*4)
		var ds []T
		if compressed {
			ds = tableBackward(ctr, ar, dG.Data, ws.secDG[tj], nA*sel, m)
		} else {
			embGr, _ := ev.gradsFor(ci, tj)
			ds = ev.embed[ci][tj].Backward(ctr, opts, ar, ws.embTr[tj], dG, embGr).Data
		}
		scatterStart := timeIf(ctr)
		for a, atom := range atoms {
			base := (atom*stride + off) * 4
			nd := ndT[base : base+sel*4]
			src := ndSec[a*sel*4 : (a+1)*sel*4]
			for i, v := range src {
				nd[i] += v
			}
			for k := 0; k < sel; k++ {
				nd[k*4] += ds[a*sel+k]
			}
		}
		observeSlice(ctr, scatterStart)
	}
	return chunkE
}

// timeIf stamps the clock only when a counter is attached, so the
// uncounted hot path pays no timer overhead for the gather/scatter
// attribution.
func timeIf(ctr *perf.Counter) time.Time {
	if ctr == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSlice records gather/scatter time under the SLICE category.
func observeSlice(ctr *perf.Counter, start time.Time) {
	if ctr != nil {
		ctr.AddTime(perf.CatSLICE, time.Since(start))
	}
}

// growArenas resizes any arena whose last evaluation overflowed, so the
// next step runs allocation-free (the paper's init-time GPU memory trunk).
func (ev *Evaluator[T]) growArenas() {
	for i, a := range ev.arenas {
		if p := a.MaxPeak(); p > a.Cap() {
			ev.arenas[i] = tensor.NewArena[T](p + p/4)
		}
	}
}

// shareOrConvert aliases the master float64 network when T is float64 (so
// the trainer's weight updates are visible without re-deriving the
// evaluator) and converts to float32 otherwise.
func shareOrConvert[T tensor.Float](n *nn.Net[float64]) *nn.Net[T] {
	if same, ok := any(n).(*nn.Net[T]); ok {
		return same
	}
	return nn.ConvertNet[T](n)
}
