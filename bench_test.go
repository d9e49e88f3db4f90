package deepmd

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (DESIGN.md carries the full experiment index) plus ablations
// of the design choices. Benchmarks print their table/figure alongside the
// usual testing.B metrics; run
//
//	go test -bench=. -benchmem
//
// or regenerate a single artifact with cmd/dpbench.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/experiments"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// benchWaterSetup prepares a small water system with a quick-scale model.
func benchWaterSetup(b *testing.B) (*core.Model, []float64, []int, *neighbor.List, *neighbor.Box) {
	b.Helper()
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 1)
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		b.Fatal(err)
	}
	return model, cell.Pos, cell.Types, list, &cell.Box
}

// BenchmarkTable1_TimeToSolution measures seconds/step/atom for the three
// execution strategies (the local rows of Table 1).
func BenchmarkTable1_TimeToSolution(b *testing.B) {
	model, pos, types, list, box := benchWaterSetup(b)
	n := len(types)
	var out core.Result
	b.Run("baseline", func(b *testing.B) {
		ev := core.NewBaselineEvaluator(model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n), "s/step/atom")
	})
	b.Run("optimized-double", func(b *testing.B) {
		ev := core.NewEvaluator[float64](model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n), "s/step/atom")
	})
	b.Run("optimized-mixed", func(b *testing.B) {
		ev := core.NewEvaluator[float32](model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n), "s/step/atom")
	})
}

// BenchmarkTable3_CustomOps times the baseline and optimized customized
// operators (Environment / ProdForce / ProdVirial).
func BenchmarkTable3_CustomOps(b *testing.B) {
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	cell := lattice.Water(5, 5, 5, lattice.WaterSpacing, 1)
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sc descriptor.Scratch
	env, err := sc.Environment(nil, dcfg, cell.Pos, cell.Types, list, &cell.Box)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	nd := make([]float64, env.Nloc*env.Stride*4)
	for i := range nd {
		nd[i] = rng.NormFloat64()
	}
	force := make([]float64, 3*cell.N())

	b.Run("Environment/baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := descriptor.EnvironmentBaseline(nil, dcfg, cell.Pos, cell.Types, list, &cell.Box); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Environment/optimized", func(b *testing.B) {
		var s2 descriptor.Scratch
		for i := 0; i < b.N; i++ {
			if _, err := s2.Environment(nil, dcfg, cell.Pos, cell.Types, list, &cell.Box); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ProdForce/baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			descriptor.ProdForceBaseline(nil, nd, env, cell.N())
		}
	})
	b.Run("ProdForce/optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(force)
			descriptor.ProdForce(nil, nd, env, force)
		}
	})
	b.Run("ProdVirial/baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			descriptor.ProdVirialBaseline(nil, nd, env)
		}
	})
	b.Run("ProdVirial/optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			descriptor.ProdVirial(nil, nd, env)
		}
	})
}

// BenchmarkFusion_StandardOps times the Sec. 7.1.2 fusions on tall-skinny
// embedding-shaped matrices.
func BenchmarkFusion_StandardOps(b *testing.B) {
	const rows, in, out = 4096, 50, 100
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewMatrix[float64](rows, in)
	w := tensor.NewMatrix[float64](in, out)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	bias := make([]float64, out)
	dst := tensor.NewMatrix[float64](rows, out)
	b.Run("MATMUL+SUM/unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.BiasAdd(nil, tensor.MatMul(nil, x, w), bias)
		}
	})
	b.Run("MATMUL+SUM/fusedGEMM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.GemmBias(nil, x, w, bias, dst)
		}
	})
	y := tensor.NewMatrix[float64](rows, 2*in)
	b.Run("CONCAT+SUM/unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Add(nil, tensor.ConcatCols(nil, x), y)
		}
	})
	b.Run("CONCAT+SUM/fusedSkip", func(b *testing.B) {
		yw := y.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.AddSkipDouble(nil, x, yw)
		}
	})
	pre := tensor.NewMatrix[float64](rows, out)
	for i := range pre.Data {
		pre.Data[i] = rng.NormFloat64()
	}
	yv := tensor.NewMatrix[float64](rows, out)
	gv := tensor.NewMatrix[float64](rows, out)
	b.Run("TANH+Grad/unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := tensor.Tanh(nil, pre)
			tensor.TanhGrad(nil, t)
		}
	})
	b.Run("TANH+Grad/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.TanhWithGrad(nil, pre, yv, gv)
		}
	})
}

// BenchmarkMixed_Precision contrasts double vs mixed full evaluations
// (Sec. 7.1.3: ~1.5x on GPU).
func BenchmarkMixed_Precision(b *testing.B) {
	model, pos, types, list, box := benchWaterSetup(b)
	n := len(types)
	var out core.Result
	b.Run("double", func(b *testing.B) {
		ev := core.NewEvaluator[float64](model)
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mixed", func(b *testing.B) {
		ev := core.NewEvaluator[float32](model)
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSort contrasts the compressed-u64 radix sort against
// the AoS struct sort during neighbor formatting (Sec. 5.2.2).
func BenchmarkAblationSort(b *testing.B) {
	cell := lattice.Water(5, 5, 5, lattice.WaterSpacing, 4)
	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{12, 24}}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("structSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := neighbor.FormatBaseline(spec, list); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressedRadix", func(b *testing.B) {
		var fm neighbor.Formatter
		for i := 0; i < b.N; i++ {
			if _, err := fm.Format(spec, list); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationArena contrasts per-step allocation against the
// init-time arena (Sec. 5.2.2's GPU memory trunk): the baseline evaluator
// allocates per call, the optimized one reuses slabs. -benchmem shows the
// allocation counts.
func BenchmarkAblationArena(b *testing.B) {
	model, pos, types, list, box := benchWaterSetup(b)
	n := len(types)
	var out core.Result
	b.Run("allocatingBaseline", func(b *testing.B) {
		ev := core.NewBaselineEvaluator(model)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arenaOptimized", func(b *testing.B) {
		ev := core.NewEvaluator[float64](model)
		// Warm the arena so the steady state is measured.
		if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationComm contrasts Allreduce vs Iallreduce thermo output at
// an artificially high output frequency (Sec. 5.4).
func BenchmarkAblationComm(b *testing.B) {
	run := func(b *testing.B, useI bool) {
		cell := lattice.FCC(3, 3, 3, 4.0)
		spec := neighbor.Spec{Rcut: 2.5, Skin: 0.3, Sel: []int{64}}
		for i := 0; i < b.N; i++ {
			sys := &System{
				Pos:        append([]float64(nil), cell.Pos...),
				Types:      cell.Types,
				MassByType: []float64{63.5},
				Box:        cell.Box,
				Vel:        make([]float64, 3*cell.N()),
			}
			sys.InitVelocities(300, 3)
			_, err := RunParallel(sys, func() Potential { return NewLennardJones(0.0103, 2.2, 2.5) }, ParallelOptions{
				Ranks: 4, Grid: [3]int{2, 2, 1}, Dt: 0.001, Steps: 20, Spec: spec,
				RebuildEvery: 10, ThermoEvery: 1, UseIallreduce: useI,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Allreduce", func(b *testing.B) { run(b, false) })
	b.Run("Iallreduce", func(b *testing.B) { run(b, true) })
}

// BenchmarkFig5_StrongScalingModel regenerates the Fig. 5 tables (model
// evaluation is cheap; printed once).
func BenchmarkFig5_StrongScalingModel(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Fig5Table()
	}
	if b.N > 0 {
		b.Logf("\n%s", s)
	}
}

// BenchmarkFig6_WeakScalingModel regenerates the Fig. 6 tables.
func BenchmarkFig6_WeakScalingModel(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Fig6Table()
	}
	if b.N > 0 {
		b.Logf("\n%s", s)
	}
}

// BenchmarkTable4_ScalingDetail regenerates Table 4.
func BenchmarkTable4_ScalingDetail(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Table4Text()
	}
	if b.N > 0 {
		b.Logf("\n%s", s)
	}
}

// BenchmarkFig3_OperatorBreakdown runs the instrumented evaluations behind
// Fig. 3 once per iteration.
func BenchmarkFig3_OperatorBreakdown(b *testing.B) {
	var res *experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig3(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.Logf("\n%s", res)
	}
}

// BenchmarkParallelRanks measures the real domain-decomposed step cost at
// increasing simulated rank counts (communication protocol overhead).
func BenchmarkParallelRanks(b *testing.B) {
	cell := lattice.FCC(4, 4, 4, 4.05)
	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{40}}
	cfg := TinyConfig(1)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 1.0, 1.0
	cfg.Sel = []int{40}
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := &System{
					Pos:        append([]float64(nil), cell.Pos...),
					Types:      cell.Types,
					MassByType: []float64{63.5},
					Box:        cell.Box,
					Vel:        make([]float64, 3*cell.N()),
				}
				sys.InitVelocities(300, 3)
				if _, err := RunParallel(sys, func() Potential { return core.NewEvaluator[float64](model) }, ParallelOptions{
					Ranks: ranks, Dt: 0.001, Steps: 10, Spec: spec,
					RebuildEvery: 5, ThermoEvery: 10,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetup_Strategies measures the Sec. 7.3 setup contrast.
func BenchmarkSetup_Strategies(b *testing.B) {
	var txt string
	for i := 0; i < b.N; i++ {
		var err error
		txt, _, err = experiments.SetupText(experiments.Quick, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", txt)
}

// BenchmarkNeighborBuild contrasts the serial cell-binned neighbor build
// against the parallel build (goroutine pool over atom blocks, per-worker
// scratch merged into the packed list) on a >=100k-atom water system —
// the neighbor-construction hot path that Lu et al. (arXiv:2004.11658)
// identify as a first-order cost at scale. On a multi-core machine the
// workers>=4 runs beat serial; with GOMAXPROCS=1 they only verify the
// pool adds no meaningful overhead.
func BenchmarkNeighborBuild(b *testing.B) {
	cell := lattice.Water(33, 33, 33, lattice.WaterSpacing, 7) // 107,811 atoms
	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{12, 24}}
	n := cell.N()
	run := func(b *testing.B, workers int) {
		var last *neighbor.List
		for i := 0; i < b.N; i++ {
			list, err := neighbor.Build(spec, cell.Pos, cell.Types, n, &cell.Box, workers)
			if err != nil {
				b.Fatal(err)
			}
			last = list
		}
		b.StopTimer()
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Matoms/s")
		var pairs int
		for _, row := range last.Entries {
			pairs += len(row)
		}
		b.ReportMetric(float64(pairs)/1e6, "Mpairs")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, w) })
	}
}

// BenchmarkGemmBlocked sweeps the blocked GEMM kernel against the naive
// serial reference over the paper's layer shapes: the embedding net's
// batched 25->50 and 50->100 doubling layers (rows = atoms x sel) and the
// fitting net's 240x240 hidden layers (ISSUE 2 acceptance shape: M >= 4096,
// K = N = 240). Worker counts sweep the row-block goroutine pool; on a
// single-core machine only the w1 contrast is meaningful.
func BenchmarkGemmBlocked(b *testing.B) {
	shapes := []struct {
		label   string
		m, k, n int
	}{
		{"fit-4096x240x240", 4096, 240, 240},
		{"embed2-11776x25x50", 11776, 25, 50},
		{"embed3-11776x50x100", 11776, 50, 100},
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		x := tensor.NewMatrix[float64](s.m, s.k)
		w := tensor.NewMatrix[float64](s.k, s.n)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		c := tensor.NewMatrix[float64](s.m, s.n)
		flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		run := func(o tensor.Opts) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.GemmOpt(o, nil, 1, x, w, 0, c)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			}
		}
		b.Run(s.label+"/naive", run(tensor.Opts{Kernel: tensor.Naive}))
		b.Run(s.label+"/blocked-w1", run(tensor.Opts{}))
		for _, w := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/blocked-w%d", s.label, w), run(tensor.Opts{Workers: w}))
		}
	}
}

// BenchmarkGEMM measures the raw kernel on a fitting-net-shaped matrix.
func BenchmarkGEMM(b *testing.B) {
	for _, shape := range [][3]int{{256, 64, 96}, {1024, 50, 100}} {
		m, k, n := shape[0], shape[1], shape[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.NewMatrix[float64](m, k)
			w := tensor.NewMatrix[float64](k, n)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for i := range w.Data {
				w.Data[i] = rng.NormFloat64()
			}
			c := tensor.NewMatrix[float64](m, n)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			for i := 0; i < b.N; i++ {
				tensor.Gemm(nil, 1, x, w, 0, c)
			}
			flops := 2 * float64(m) * float64(k) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkEvalBatched contrasts the chunk-batched descriptor pipeline
// (ISSUE 3, Sec. 5.3.1: merge the per-atom embedding/descriptor matrices
// into strided-batched GEMMs) against the retained per-atom reference path
// on the Quick water (nt = 2) and copper (nt = 1) shapes, at Workers = 1
// (batch x row-block parallelism inside the GEMMs) and Workers = 4 (chunk
// fan-out). The networks and customized operators are identical between
// the two paths; the delta is the descriptor stage's execution strategy.
// `dpbench -exp batch` reports the same contrast best-of-reps with the
// force cross-check.
func BenchmarkEvalBatched(b *testing.B) {
	shapes := []struct {
		label string
		water bool
		sel   []int
	}{
		{"water", true, []int{12, 24}},
		{"copper", false, []int{36}},
	}
	for _, s := range shapes {
		nt := len(s.sel)
		cfg := TinyConfig(nt)
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
		cfg.Sel = s.sel
		cfg.EmbedWidths = []int{8, 16, 32}
		cfg.MAxis = 8
		cfg.FitWidths = []int{32, 32, 32}
		cfg.ChunkSize = 64
		var cell *lattice.System
		if s.water {
			cell = lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
		} else {
			c := lattice.FCC(4, 4, 4, 3.615)
			lattice.Perturb(c, 0.05, 3)
			cell = c
		}
		spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
		list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := cell.N()
		for _, workers := range []int{1, 4} {
			for _, perAtom := range []bool{true, false} {
				lbl := "batched"
				if perAtom {
					lbl = "peratom"
				}
				b.Run(fmt.Sprintf("%s/workers=%d/%s", s.label, workers, lbl), func(b *testing.B) {
					wcfg := cfg
					wcfg.Workers = workers
					model, err := core.New(wcfg)
					if err != nil {
						b.Fatal(err)
					}
					ev := core.NewEvaluator[float64](model)
					ev.SetPerAtomDescriptors(perAtom)
					var out core.Result
					// Warm the arenas so the steady state is measured.
					if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n)*1e9, "ns/step/atom")
				})
			}
		}
	}
}

// BenchmarkEngineServe measures aggregate evaluation throughput of ONE
// goroutine-safe Engine under 1, 2, 4 and 8 concurrent callers (ISSUE 5
// acceptance: >= 3x aggregate throughput at 8 callers vs 1 on a
// multi-core machine, 0 B/op steady state — each caller borrows a pooled
// evaluator with warm arenas, so the only possible scaling loss is pool
// handoff). Per-evaluator Workers stays 1: serving parallelism comes from
// independent requests, not from splitting one request. On a single-core
// host the concurrent rows only verify the pool adds no meaningful
// overhead; the pool leg of `dpbench -exp load` reports the same
// contrast with every response checked bit-identical.
func BenchmarkEngineServe(b *testing.B) {
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 1)
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := cell.N()
	for _, conc := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			eng, err := Open(model, WithWorkers(1), WithMaxConcurrency(conc))
			if err != nil {
				b.Fatal(err)
			}
			// Warm every pooled evaluator's arenas so the measured loop is
			// the steady state.
			if err := eng.Prewarm(cell.Pos, cell.Types, n, list, &cell.Box); err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			// b.N total evaluations, fanned over conc goroutines.
			per := b.N / conc
			rem := b.N % conc
			errs := make([]error, conc)
			for g := 0; g < conc; g++ {
				k := per
				if g < rem {
					k++
				}
				wg.Add(1)
				go func(g, k int) {
					defer wg.Done()
					var out core.Result
					for i := 0; i < k; i++ {
						if err := eng.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
							errs[g] = err
							return
						}
					}
				}(g, k)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkEvalCompressed contrasts the tabulated-embedding pipeline
// (ISSUE 4, the successor papers' model compression) against the
// exact-batched pipeline on the Quick water/copper shapes and on the
// paper's network geometry (embedding 25-50-100, fitting 240³, M' = 16 —
// where the embedding GEMMs the table replaces dominate the step, the
// regime the 86-PFLOPS paper targets). Both variants report allocations:
// the compressed steady state must stay at 0 B/op. `dpbench -exp
// compress` reports the same contrast best-of-reps with the force
// cross-check; `-full` runs it at the full paper geometry and system.
func BenchmarkEvalCompressed(b *testing.B) {
	shapes := []struct {
		label    string
		water    bool
		sel      []int
		paperNet bool
	}{
		{"water", true, []int{12, 24}, false},
		{"copper", false, []int{36}, false},
		{"water-papernet", true, []int{12, 24}, true},
	}
	for _, s := range shapes {
		nt := len(s.sel)
		cfg := TinyConfig(nt)
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
		cfg.Sel = s.sel
		cfg.EmbedWidths = []int{8, 16, 32}
		cfg.MAxis = 8
		cfg.FitWidths = []int{32, 32, 32}
		cfg.ChunkSize = 64
		if s.paperNet {
			cfg.EmbedWidths = []int{25, 50, 100}
			cfg.MAxis = 16
			cfg.FitWidths = []int{240, 240, 240}
		}
		var cell *lattice.System
		if s.water {
			cell = lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
		} else {
			c := lattice.FCC(4, 4, 4, 3.615)
			lattice.Perturb(c, 0.05, 3)
			cell = c
		}
		spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
		list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := cell.N()
		for _, compressed := range []bool{false, true} {
			lbl := "batched"
			if compressed {
				lbl = "compressed"
			}
			b.Run(fmt.Sprintf("%s/%s", s.label, lbl), func(b *testing.B) {
				model, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ev := core.NewEvaluator[float64](model)
				if compressed {
					if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
						b.Fatal(err)
					}
				}
				var out core.Result
				// Warm the arenas so the steady state is measured.
				if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n)*1e9, "ns/step/atom")
			})
		}
	}
}
