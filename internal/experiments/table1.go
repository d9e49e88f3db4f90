package experiments

import (
	"fmt"

	"deepmd-go/internal/core"
	"deepmd-go/internal/perfmodel"
)

// Table1Result reproduces Table 1: the published landscape rows, the
// model-projected "This work" rows, and locally measured rows for this
// library's baseline and optimized implementations on the host CPU.
type Table1Result struct {
	Published []perfmodel.Table1Row
	ThisWork  []perfmodel.Table1Row
	LocalRows []perfmodel.Table1Row
}

// Table1 assembles the table; the local measurement uses a small water box
// and reports honest CPU seconds/step/atom.
func Table1(sc Scale) (*Table1Result, error) {
	res := &Table1Result{
		Published: perfmodel.Table1Published(),
		ThisWork:  perfmodel.Table1ThisWork(),
	}

	cfg := waterModelConfig(sc)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	pos, types, list, box, err := waterBox(&cfg, waterNX(sc), 9)
	if err != nil {
		return nil, err
	}
	n := len(types)
	var out core.Result

	base := core.NewBaselineEvaluator(model)
	opt := core.NewEvaluator[float64](model)
	mix := core.NewEvaluator[float32](model)
	t, err := measure(3,
		func() error { return base.Compute(pos, types, n, list, box, &out) },
		func() error { return opt.Compute(pos, types, n, list, box, &out) },
		func() error { return mix.Compute(pos, types, n, list, box, &out) })
	if err != nil {
		return nil, err
	}
	tb, to, tm := t[0].Seconds()/float64(n), t[1].Seconds()/float64(n), t[2].Seconds()/float64(n)
	host := "this host (1 CPU)"
	res.LocalRows = []perfmodel.Table1Row{
		{Work: "This library, baseline strategy", Year: 2020, Potential: "DP", System: "H2O", Atoms: float64(n), Machine: host, TtS: tb},
		{Work: "This library, optimized double", Year: 2020, Potential: "DP", System: "H2O", Atoms: float64(n), Machine: host, TtS: to},
		{Work: "This library, optimized mixed", Year: 2020, Potential: "DP", System: "H2O", Atoms: float64(n), Machine: host, TtS: tm},
	}
	return res, nil
}

// String prints the assembled table.
func (r *Table1Result) String() string {
	var rows [][]string
	add := func(t1 perfmodel.Table1Row) {
		peak := "?"
		if t1.PeakFLOPS > 0 {
			peak = fmt.Sprintf("%.0fT", t1.PeakFLOPS/1e12)
		}
		rows = append(rows, []string{
			t1.Work, fmt.Sprint(t1.Year), t1.Potential, t1.System,
			fmt.Sprintf("%.3g", t1.Atoms), t1.Machine, peak, fmt.Sprintf("%.1e", t1.TtS),
		})
	}
	for _, t1 := range r.Published {
		add(t1)
	}
	for _, t1 := range r.ThisWork {
		add(t1)
	}
	for _, t1 := range r.LocalRows {
		add(t1)
	}
	return "Table 1: MD simulators with ab initio accuracy (TtS = seconds/step/atom)\n" +
		table([]string{"Work", "Year", "Pot", "System", "Atoms", "Machine", "Peak", "TtS"}, rows)
}
