package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// GemmRow is one shape of the GEMM kernel ablation: the naive serial
// reference and the portable blocked engine (forced-generic, the pre-SIMD
// execution path) against the runtime-dispatched SIMD kernels, serial,
// parallel and with the fused bias+tanh+gradient epilogue.
type GemmRow struct {
	Label   string
	M, K, N int
	Naive   time.Duration // best-of-reps, naive serial
	Blocked time.Duration // best-of-reps, blocked engine with family forced to generic
	SIMD    time.Duration // best-of-reps, active-family SIMD kernels, serial
	Par     time.Duration // best-of-reps, SIMD with Workers goroutines
	Fused2P time.Duration // bias+tanh+grad operator, forced-generic two-pass
	Fused   time.Duration // bias+tanh+grad operator, fused SIMD epilogue
	MaxDiff float64       // max |simd - naive| over C (tolerance sanity)
}

// GemmResult is the `dpbench -exp gemm` kernel ablation: the tensor
// layer's ablation of the Sec. 5.3.1 observation that GEMM dominates the
// per-step cost. Shapes follow the paper's layers — the tall-skinny
// embedding GEMMs M x 1 x 25, M x 25 x 50, M x 50 x 100 at neighbor-row
// counts M in {1e3, 1e4, 1e5} (the 1e5 tier under -full) — plus the
// fitting net's 240 x 240 hidden layer. Kernel names which SIMD family
// executed the SIMD/Par/Fused columns.
type GemmResult struct {
	Workers int
	Kernel  string
	Rows    []GemmRow
}

// GemmKernels times the kernel families on the paper's layer shapes. The
// SIMD result is verified against the naive reference (MaxDiff reported),
// and the parallel run is required to be bit-identical to the serial SIMD
// run, mirroring the differential tests. The blocked column forces the
// kernel family to generic for the duration of its timing, so it measures
// the portable engine the repo shipped before the assembly kernels — the
// speedup baseline in BENCH_PR8.json.
func GemmKernels(sc Scale, workers int) (*GemmResult, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	mTiers, fitRows, reps := []int{1e3, 1e4}, 512, 5
	if sc == Full {
		mTiers, fitRows, reps = []int{1e3, 1e4, 1e5}, 4096, 3
	}
	type shape struct {
		label   string
		m, k, n int
	}
	var shapes []shape
	for _, mt := range mTiers {
		shapes = append(shapes,
			// Embedding layer 1 consumes one s(r) value per neighbor
			// slot: K = 1 documents the dispatch policy at the thinnest
			// reduction the tall-skinny kernels accept.
			shape{fmt.Sprintf("embed 1->25 M=%d", mt), mt, 1, 25},
			shape{fmt.Sprintf("embed 25->50 M=%d", mt), mt, 25, 50},
			shape{fmt.Sprintf("embed 50->100 M=%d", mt), mt, 50, 100},
		)
	}
	shapes = append(shapes, shape{"fitting 240x240", fitRows, 240, 240})

	res := &GemmResult{Workers: workers, Kernel: tensor.KernelInfo().Family}
	for si, s := range shapes {
		rng := rand.New(rand.NewSource(int64(1 + si)))
		a := tensor.NewMatrix[float64](s.m, s.k)
		b := tensor.NewMatrix[float64](s.k, s.n)
		bias := make([]float64, s.n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		cRef := tensor.NewMatrix[float64](s.m, s.n)
		cVar := tensor.NewMatrix[float64](s.m, s.n)
		cPar := tensor.NewMatrix[float64](s.m, s.n)
		row := GemmRow{Label: s.label, M: s.m, K: s.k, N: s.n}
		gemm := func(o tensor.Opts, c tensor.Matrix[float64]) func() error {
			return noErr(func() { tensor.GemmOpt(o, nil, 1, a, b, 0, c) })
		}
		// The fused operator reuses the verification matrices as its
		// activation/gradient outputs, so it runs after the checks.
		fused := noErr(func() { tensor.GemmBiasTanhGradOpt(tensor.Opts{}, nil, a, b, bias, cRef, cPar) })
		// The kernels cannot fail, so neither can measure.
		t, _ := measure(reps,
			gemm(tensor.Opts{Kernel: tensor.Naive}, cRef),
			gemm(tensor.Opts{}, cVar),
			gemm(tensor.Opts{Workers: workers}, cPar))
		row.Naive, row.SIMD, row.Par = t[0], t[1], t[2]
		for i := range cRef.Data {
			if d := math.Abs(cVar.Data[i] - cRef.Data[i]); d > row.MaxDiff {
				row.MaxDiff = d
			}
			if cPar.Data[i] != cVar.Data[i] {
				return nil, fmt.Errorf("experiments: gemm %s: workers=%d not bit-identical to serial at element %d", s.label, workers, i)
			}
		}
		blocked, err := withFamily(cpufeat.Generic, func() ([]time.Duration, error) {
			return measure(reps, gemm(tensor.Opts{}, cVar), fused)
		})
		if err != nil {
			return nil, err
		}
		t, _ = measure(reps, fused)
		row.Blocked, row.Fused2P, row.Fused = blocked[0], blocked[1], t[0]
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// withFamily runs f with the kernel family forced to fam, restoring the
// previous selection afterwards.
func withFamily(fam cpufeat.Family, f func() ([]time.Duration, error)) ([]time.Duration, error) {
	prev := cpufeat.Active()
	//dp:allow dispatch the family sweep is this experiment's purpose; Active() is restored below
	if _, err := cpufeat.SetActive(fam); err != nil {
		return nil, fmt.Errorf("experiments: forcing %v kernels: %w", fam, err)
	}
	//dp:allow dispatch restores the selection captured above
	defer cpufeat.SetActive(prev)
	return f()
}

func gflops(m, k, n int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", 2*float64(m)*float64(k)*float64(n)/d.Seconds()/1e9)
}

func (r *GemmResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, w := range r.Rows {
		rows = append(rows, []string{
			w.Label,
			fmt.Sprintf("%dx%dx%d", w.M, w.K, w.N),
			gflops(w.M, w.K, w.N, w.Naive),
			gflops(w.M, w.K, w.N, w.Blocked),
			gflops(w.M, w.K, w.N, w.SIMD),
			gflops(w.M, w.K, w.N, w.Par),
			fmt.Sprintf("%.2f", ratio(w.Blocked, w.SIMD)),
			fmt.Sprintf("%.2f", ratio(w.Naive, w.SIMD)),
			fmt.Sprintf("%.2f", ratio(w.Fused2P, w.Fused)),
			fmt.Sprintf("%.1e", w.MaxDiff),
		})
	}
	return fmt.Sprintf("GEMM kernels: naive vs generic blocked vs %s SIMD (serial and x %d workers, GFLOPS; parallel verified bit-identical to serial)\n", r.Kernel, r.Workers) +
		table([]string{"layer", "MxKxN", "naive", "generic", r.Kernel, fmt.Sprintf("%s x%d", r.Kernel, r.Workers), "vs generic", "vs naive", "fused gain", "max|diff|"}, rows)
}

// Records emits the machine-readable perf trajectory rows. Speedup stays
// relative to the naive reference (the convention of every BENCH file);
// the vs-generic ratio of the SIMD kernels is derivable from the
// ns_per_op of the /blocked and /simd rows, which share a shape key.
func (r *GemmResult) Records() []Record {
	var recs []Record
	for _, w := range r.Rows {
		shape := fmt.Sprintf("%s-%dx%dx%d", w.Label, w.M, w.K, w.N)
		recs = append(recs,
			Record{Experiment: "gemm", Shape: shape + "/naive", NsPerOp: float64(w.Naive.Nanoseconds()), Speedup: 1, Kernel: "naive"},
			Record{Experiment: "gemm", Shape: shape + "/blocked", NsPerOp: float64(w.Blocked.Nanoseconds()), Speedup: ratio(w.Naive, w.Blocked), Kernel: "generic"},
			Record{Experiment: "gemm", Shape: shape + "/simd", NsPerOp: float64(w.SIMD.Nanoseconds()), Speedup: ratio(w.Naive, w.SIMD), Kernel: r.Kernel},
			Record{Experiment: "gemm", Shape: fmt.Sprintf("%s/simd-w%d", shape, r.Workers), NsPerOp: float64(w.Par.Nanoseconds()), Speedup: ratio(w.Naive, w.Par), Kernel: r.Kernel},
			Record{Experiment: "gemm", Shape: shape + "/fused-twopass", NsPerOp: float64(w.Fused2P.Nanoseconds()), Speedup: 1, Kernel: "generic"},
			Record{Experiment: "gemm", Shape: shape + "/fused", NsPerOp: float64(w.Fused.Nanoseconds()), Speedup: ratio(w.Fused2P, w.Fused), Kernel: r.Kernel},
		)
	}
	return recs
}
