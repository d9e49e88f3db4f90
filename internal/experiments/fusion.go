package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"deepmd-go/internal/tensor"
)

// FusionResult reproduces Sec. 7.1.2: the standard-operator graphs vs the
// fused kernels on the tall-skinny matrix shapes of the water embedding
// net. The paper reports 1.3x (MATMUL+SUM -> GEMM), 1.7x (CONCAT+SUM ->
// GEMM) and 1.6x (TANH+TANHGrad -> fused) on GPU.
type FusionResult struct {
	Rows []FusionRow
}

// FusionRow is one fusion contrast.
type FusionRow struct {
	Name      string
	Unfused   time.Duration
	Fused     time.Duration
	RowsShape string
}

// Speedup returns unfused/fused.
func (r FusionRow) Speedup() float64 {
	if r.Fused == 0 {
		return 0
	}
	return float64(r.Unfused) / float64(r.Fused)
}

// Fusion measures the three fusions, taking at least reps samples of each
// variant (see measure). rows is the batch height; the paper's example is
// 376,832 x 50 (oxygen-hydrogen pairs of 4,096 molecules); Quick uses a
// smaller batch.
func Fusion(sc Scale, reps int) *FusionResult {
	rows := 376832 / 64
	if sc == Full {
		rows = 376832 / 8
	}
	rng := rand.New(rand.NewSource(1))
	const in, out = 50, 100
	x := tensor.NewMatrix[float64](rows, in)
	w := tensor.NewMatrix[float64](in, out)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	bias := make([]float64, out)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}

	dst := tensor.NewMatrix[float64](rows, out)
	y := tensor.NewMatrix[float64](rows, 2*in)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	ywork := y.Clone()
	pre := tensor.NewMatrix[float64](rows, out)
	for i := range pre.Data {
		pre.Data[i] = rng.NormFloat64()
	}
	yv := tensor.NewMatrix[float64](rows, out)
	gv := tensor.NewMatrix[float64](rows, out)

	res := &FusionResult{}
	for _, c := range []struct {
		name, shape    string
		unfused, fused func()
	}{
		// MATMUL + SUM vs fused GEMM-with-bias.
		{"MATMUL+SUM -> GEMM", fmt.Sprintf("%dx%dx%d", rows, in, out),
			func() { tensor.BiasAdd(nil, tensor.MatMul(nil, x, w), bias) },
			func() { tensor.GemmBiasOpt(tensor.Opts{}, nil, x, w, bias, dst) }},
		// CONCAT + SUM vs in-place skip add.
		{"CONCAT+SUM -> skip add", fmt.Sprintf("%dx%d", rows, 2*in),
			func() { tensor.Add(nil, tensor.ConcatCols(nil, x), y) },
			func() { tensor.AddSkipDouble(nil, x, ywork) }},
		// TANH then TANHGrad vs fused production during the same pass.
		{"TANH+TANHGrad -> fused", fmt.Sprintf("%dx%d", rows, out),
			func() { tensor.TanhGrad(nil, tensor.Tanh(nil, pre)) },
			func() { tensor.TanhWithGrad(nil, pre, yv, gv) }},
	} {
		// The tensor kernels cannot fail, so neither can measure.
		t, _ := measure(reps, noErr(c.unfused), noErr(c.fused))
		res.Rows = append(res.Rows, FusionRow{c.name, t[0], t[1], c.shape})
	}
	return res
}

// String prints the rows.
func (r *FusionResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, row.RowsShape, ms(row.Unfused), ms(row.Fused), fmt.Sprintf("%.2fx", row.Speedup())})
	}
	return "Sec 7.1.2: standard-operator fusion (paper: 1.3x / 1.7x / 1.6x on GPU)\n" +
		table([]string{"Fusion", "Shape", "Unfused[ms]", "Fused[ms]", "Speedup"}, rows)
}
