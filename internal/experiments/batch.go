package experiments

import (
	"fmt"
	"math"
	"time"

	"deepmd-go/internal/core"
)

// BatchRow is one system of the descriptor-batching contrast: the per-atom
// reference pipeline (2018 computational granularity, Sec. 5.3.1's "before")
// against the chunk-batched strided-GEMM pipeline, serial and with the
// worker budget.
type BatchRow struct {
	Label      string
	Atoms      int
	PerAtom    time.Duration // best-of-reps, per-atom reference, serial
	Batched    time.Duration // best-of-reps, batched, serial
	BatchedPar time.Duration // best-of-reps, batched, Workers goroutines
	MaxRelDiff float64       // max |batched - perAtom| / (1 + |perAtom|) over forces
}

// BatchResult is the `dpbench -exp batch` experiment (ISSUE 3): the
// evaluator-level ablation of Sec. 5.3.1 / Fig. 3 — merging the per-atom
// embedding and descriptor matrices into chunk-level batched GEMMs is what
// moves the dominant non-network FLOPs onto the blocked kernels.
type BatchResult struct {
	Workers int
	Rows    []BatchRow
}

// DescriptorBatch measures whole force evaluations of the per-atom and
// batched descriptor pipelines on the water (nt = 2) and copper (nt = 1)
// shapes, verifying force agreement under the magnitude-proportional
// tolerance as it goes.
func DescriptorBatch(sc Scale, workers int) (*BatchResult, error) {
	if workers <= 0 {
		workers = 4
	}
	reps := 5
	if sc == Full {
		reps = 3
	}
	res := &BatchResult{Workers: workers}
	for _, sys := range []struct {
		label string
		water bool
	}{{"water", true}, {"copper", false}} {
		var cfg core.Config
		if sys.water {
			cfg = waterModelConfig(sc)
		} else {
			cfg = copperModelConfig(sc)
		}
		model, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		var pos []float64
		var types []int
		var lb listAndBox
		if sys.water {
			p, t, l, b, err := waterBox(&cfg, waterNX(sc), 3)
			if err != nil {
				return nil, err
			}
			pos, types, lb = p, t, listAndBox{l, b}
		} else {
			p, t, l, b, err := copperBox(&cfg, copperNX(sc))
			if err != nil {
				return nil, err
			}
			pos, types, lb = p, t, listAndBox{l, b}
		}
		n := len(types)
		row := BatchRow{Label: sys.label, Atoms: n}

		modelParV := *model
		modelParV.Cfg.Workers = workers
		modelPar := &modelParV

		evRef := core.NewEvaluator[float64](model)
		evRef.SetPerAtomDescriptors(true)
		evBat := core.NewEvaluator[float64](model)
		evPar := core.NewEvaluator[float64](modelPar)

		var rRef, rBat, rPar core.Result
		t, err := measure(reps,
			func() error { return evRef.Compute(pos, types, n, lb.l, lb.b, &rRef) },
			func() error { return evBat.Compute(pos, types, n, lb.l, lb.b, &rBat) },
			func() error { return evPar.Compute(pos, types, n, lb.l, lb.b, &rPar) })
		if err != nil {
			return nil, err
		}
		row.PerAtom, row.Batched, row.BatchedPar = t[0], t[1], t[2]
		for i := range rRef.Force {
			d := math.Abs(rBat.Force[i]-rRef.Force[i]) / (1 + math.Abs(rRef.Force[i]))
			if d > row.MaxRelDiff {
				row.MaxRelDiff = d
			}
		}
		if row.MaxRelDiff > 1e-9 {
			return nil, fmt.Errorf("experiments: batch %s: batched forces deviate %.2e from per-atom reference", sys.label, row.MaxRelDiff)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String prints the contrast with speedups relative to the per-atom path.
func (r *BatchResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, w := range r.Rows {
		rows = append(rows, []string{
			w.Label,
			fmt.Sprintf("%d", w.Atoms),
			ms(w.PerAtom),
			ms(w.Batched),
			ms(w.BatchedPar),
			fmt.Sprintf("%.2f", float64(w.PerAtom)/float64(w.Batched)),
			fmt.Sprintf("%.2f", float64(w.PerAtom)/float64(w.BatchedPar)),
			fmt.Sprintf("%.1e", w.MaxRelDiff),
		})
	}
	return fmt.Sprintf("Descriptor batching (Sec 5.3.1/Fig 3): per-atom GEMM loops vs chunk-batched strided GEMMs (ms/eval; forces verified against the per-atom oracle)\n") +
		table([]string{"system", "atoms", "per-atom", "batched", fmt.Sprintf("batched x%d", r.Workers), "speedup", "par speedup", "max rel diff"}, rows)
}

// Records emits the machine-readable perf trajectory rows.
func (r *BatchResult) Records() []Record {
	var recs []Record
	for _, w := range r.Rows {
		shape := fmt.Sprintf("%s-%datoms", w.Label, w.Atoms)
		recs = append(recs,
			Record{Experiment: "batch", Shape: shape + "/per-atom", NsPerOp: float64(w.PerAtom.Nanoseconds()), Speedup: 1},
			Record{Experiment: "batch", Shape: shape + "/batched", NsPerOp: float64(w.Batched.Nanoseconds()), Speedup: ratio(w.PerAtom, w.Batched)},
			Record{Experiment: "batch", Shape: fmt.Sprintf("%s/batched-w%d", shape, r.Workers), NsPerOp: float64(w.BatchedPar.Nanoseconds()), Speedup: ratio(w.PerAtom, w.BatchedPar)},
		)
	}
	return recs
}

func ratio(base, opt time.Duration) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}
