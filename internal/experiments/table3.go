package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
)

// Table3Result reproduces Table 3: per-operator time of the baseline
// customized operators vs the optimized ones, on a water configuration.
// The paper measures a CPU baseline against GPU kernels (130x/38x/17x);
// here both run on the CPU, so the expected shape is optimized >> baseline
// with Environment showing the largest gain (it contains the sort).
type Table3Result struct {
	Atoms int
	Rows  []Table3Row
}

// Table3Row is one operator's timing.
type Table3Row struct {
	Op        string
	Baseline  time.Duration
	Optimized time.Duration
}

// Speedup returns baseline/optimized.
func (r Table3Row) Speedup() float64 {
	if r.Optimized == 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Optimized)
}

// Table3 measures the three customized operators. nx is the water box
// edge in molecules; reps is the least number of samples per operator
// variant (see measure).
func Table3(sc Scale, nx, reps int) (*Table3Result, error) {
	cfg := waterModelConfig(sc)
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	pos, types, list, box, err := waterBox(&cfg, nx, 1)
	if err != nil {
		return nil, err
	}
	n := len(types)
	res := &Table3Result{Atoms: n}

	// Prepare a shared environment output and a random network gradient
	// for the force/virial operators.
	var sc2 descriptor.Scratch
	env, err := sc2.Environment(nil, dcfg, pos, types, list, box)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2))
	nd := make([]float64, env.Nloc*env.Stride*4)
	for i := range nd {
		nd[i] = rng.NormFloat64()
	}
	force := make([]float64, 3*n)

	var scratch descriptor.Scratch
	for _, op := range []struct {
		name          string
		baseline, opt func() error
	}{
		{"Environment", func() error {
			_, err := descriptor.EnvironmentBaseline(nil, dcfg, pos, types, list, box)
			return err
		}, func() error {
			_, err := scratch.Environment(nil, dcfg, pos, types, list, box)
			return err
		}},
		{"ProdVirial",
			noErr(func() { descriptor.ProdVirialBaseline(nil, nd, env) }),
			noErr(func() { descriptor.ProdVirial(nil, nd, env) })},
		{"ProdForce",
			noErr(func() { descriptor.ProdForceBaseline(nil, nd, env, n) }),
			noErr(func() {
				clear(force)
				descriptor.ProdForce(nil, nd, env, force)
			})},
	} {
		t, err := measure(reps, op.baseline, op.opt)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{op.name, t[0], t[1]})
	}
	return res, nil
}

// String prints the table in the paper's format.
func (r *Table3Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Op, ms(row.Baseline), ms(row.Optimized), fmt.Sprintf("%.1fx", row.Speedup()),
		})
	}
	return fmt.Sprintf("Table 3: customized operators, water %d atoms (paper: 130x/38x/17x on GPU)\n", r.Atoms) +
		table([]string{"Operator", "Baseline[ms]", "Optimized[ms]", "Speedup"}, rows)
}

// AblationSort isolates the compressed-radix-sort vs struct-sort choice of
// Sec. 5.2.2 on real neighbor data.
func AblationSort(sc Scale, nx, reps int) (structSort, radixSort time.Duration, err error) {
	cfg := waterModelConfig(sc)
	_, _, list, _, err := waterBox(&cfg, nx, 4)
	if err != nil {
		return 0, 0, err
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}
	var fm neighbor.Formatter
	t, err := measure(reps, func() error {
		_, err := neighbor.FormatBaseline(spec, list)
		return err
	}, func() error {
		_, err := fm.Format(spec, list)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return t[0], t[1], nil
}
