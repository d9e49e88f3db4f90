package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// Tests for the SIMD microkernel engine. Three layers of checking:
//
//  1. TestTileArgsLayout pins the tileArgs field offsets the .s files
//     hard-code (TA_* defines).
//  2. The per-family differential sweep forces every family the host can
//     execute (Generic included) through the public GEMM dispatch and
//     holds it to the differential tolerance policy plus worker-count
//     bit-identity.
//  3. The lane-vs-model tests exploit the strip layout: with every A row
//     identical, rows computed by asm lanes and the row computed by the
//     scalar Go model must be bit-identical for float64 — the strongest
//     statement of the "scalar model reproduces the asm" contract,
//     including NaN and Inf propagation through the fused tanh epilogue.

func TestTileArgsLayout(t *testing.T) {
	var ta tileArgs
	offsets := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"a", unsafe.Offsetof(ta.a), 0},
		{"b", unsafe.Offsetof(ta.b), 8},
		{"c", unsafe.Offsetof(ta.c), 16},
		{"bias", unsafe.Offsetof(ta.bias), 24},
		{"grad", unsafe.Offsetof(ta.grad), 32},
		{"lda", unsafe.Offsetof(ta.lda), 40},
		{"ldb", unsafe.Offsetof(ta.ldb), 48},
		{"ldc", unsafe.Offsetof(ta.ldc), 56},
		{"ldg", unsafe.Offsetof(ta.ldg), 64},
		{"k", unsafe.Offsetof(ta.k), 72},
		{"n", unsafe.Offsetof(ta.n), 80},
		{"alpha", unsafe.Offsetof(ta.alpha), 88},
		{"beta", unsafe.Offsetof(ta.beta), 96},
		{"mode", unsafe.Offsetof(ta.mode), 104},
	}
	for _, o := range offsets {
		if o.got != o.want {
			t.Errorf("tileArgs.%s at offset %d, asm expects %d", o.name, o.got, o.want)
		}
	}
	if s := unsafe.Sizeof(ta); s != 112 {
		t.Errorf("tileArgs size %d, want 112", s)
	}
}

// simdTestFamilies returns every kernel family this host/build can
// execute, Generic always included.
func simdTestFamilies() []cpufeat.Family {
	fams := []cpufeat.Family{cpufeat.Generic}
	for _, f := range []cpufeat.Family{cpufeat.AVX2, cpufeat.AVX512} {
		if cpufeat.Available(f) {
			fams = append(fams, f)
		}
	}
	return fams
}

// sweepFamilies runs fn once per executable family with that family
// forced active, restoring the original selection afterwards. Callers
// must not use t.Parallel: the active family is process-global.
func sweepFamilies(t *testing.T, fn func(t *testing.T, fam cpufeat.Family)) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range simdTestFamilies() {
		fam := fam
		t.Run("family="+fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			fn(t, fam)
		})
	}
}

// TestGemmDifferentialPerFamily is the differential suite of
// differential_test.go focused on the SIMD-eligible regime (tall-skinny
// embedding shapes, K in {1, 25, 50}, the 240-wide fitting shape, and
// unaligned M/N remainders below every tile width), forced through every
// kernel family. Each cell also sweeps worker counts 1/2/7 with the
// bit-identity contract.
func TestGemmDifferentialPerFamily(t *testing.T) {
	shapes := [][3]int{
		{5, 1, 9}, {8, 3, 8}, {9, 25, 26}, {12, 50, 33},
		{17, 50, 24}, {23, 25, 100}, {64, 1, 25}, {100, 25, 50},
		{64, 50, 100}, {40, 240, 240},
	}
	alphaBeta := [][2]float64{{1, 0}, {2.5, -0.5}, {1, 1}}
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		for variant := 0; variant < numVariants; variant++ {
			for si, shape := range shapes {
				m, k, n := shape[0], shape[1], shape[2]
				if variant >= variantGemmBias {
					runGemmVariantCase[float64](t, variant, m, k, n, 1, 1, int64(9000+si))
					runGemmVariantCase[float32](t, variant, m, k, n, 1, 1, int64(9000+si))
					continue
				}
				for ai, ab := range alphaBeta {
					runGemmVariantCase[float64](t, variant, m, k, n, ab[0], ab[1], int64(9100+10*si+ai))
					runGemmVariantCase[float32](t, variant, m, k, n, ab[0], ab[1], int64(9100+10*si+ai))
				}
			}
		}
	})
}

// fillRepeatedRows builds an m-row matrix whose rows are all the given
// row, so asm-strip rows and scalar-model remainder rows compute the same
// mathematical quantity and can be compared bitwise.
func repeatedRows(row []float64, m int) Matrix[float64] {
	a := NewMatrix[float64](m, len(row))
	for i := 0; i < m; i++ {
		copy(a.Data[i*len(row):(i+1)*len(row)], row)
	}
	return a
}

func checkRowsBitEqual(t *testing.T, label string, c Matrix[float64], lastRow int) {
	t.Helper()
	n := c.Cols
	want := c.Data[lastRow*n : (lastRow+1)*n]
	for i := 0; i < lastRow; i++ {
		got := c.Data[i*n : (i+1)*n]
		for j := range got {
			if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
				// NaN payloads are not part of the contract: hardware FMA
				// propagates the payload of a different operand slot than
				// math.FMA in the gradient's 1 - y*y.
				continue
			}
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: row %d col %d: lane %x (%g) != scalar model %x (%g)",
					label, i, j, math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
			}
		}
	}
}

// TestSIMDLaneVsScalarModel checks the float64 bit-exactness contract
// directly: an (R+1)-row problem with identical A rows must produce R
// asm-lane rows bit-identical to the scalar-model remainder row, for every
// epilogue mode, with a column tail below the chunk width in every shape.
func TestSIMDLaneVsScalarModel(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		caps, ok := simdCaps(fam, 8)
		if !ok {
			t.Skip("no float64 kernel in this family")
		}
		R := caps.rows
		m := R + 1
		rng := rand.New(rand.NewSource(77))
		for _, k := range []int{1, 25, 50, 240} {
			n := 2*caps.cover + 3 // two asm chunks plus a scalar column tail
			row := make([]float64, k)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			a := repeatedRows(row, m)
			b := randMatT[float64](rng, k, n)
			bias := make([]float64, n)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}
			label := fmt.Sprintf("%s k=%d", fam, k)

			c0row := make([]float64, n)
			for i := range c0row {
				c0row[i] = rng.NormFloat64()
			}
			c := repeatedRows(c0row, m)
			GemmOpt(Opts{}, nil, 2.5, a, b, -0.5, c)
			checkRowsBitEqual(t, label+" epiNone", c, R)

			c = NewMatrix[float64](m, n)
			GemmBiasOpt(Opts{}, nil, a, b, bias, c)
			checkRowsBitEqual(t, label+" epiBias", c, R)

			y := NewMatrix[float64](m, n)
			grad := NewMatrix[float64](m, n)
			GemmBiasTanhGradOpt(Opts{}, nil, a, b, bias, y, grad)
			checkRowsBitEqual(t, label+" epiTanh y", y, R)
			checkRowsBitEqual(t, label+" epiTanhGrad", grad, R)
		}
	})
}

// TestSIMDNaNInfPropagation drives non-finite values through the fused
// tanh epilogue: a NaN pre-activation must stay NaN (same bits between
// lane and model), +/-Inf must saturate to +/-1 with gradient 0, and both
// must not contaminate neighboring lanes.
func TestSIMDNaNInfPropagation(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		caps, ok := simdCaps(fam, 8)
		if !ok {
			t.Skip("no float64 kernel in this family")
		}
		R := caps.rows
		m := R + 1
		k := 25
		n := caps.cover + 3
		rng := rand.New(rand.NewSource(99))
		row := make([]float64, k)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		a := repeatedRows(row, m)
		b := randMatT[float64](rng, k, n)
		bias := make([]float64, n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		// Column 0: NaN via a NaN bias. Column 1: +Inf bias. Column 2: -Inf
		// bias. Column 3: huge positive pre-activation (saturated tanh).
		bias[0] = math.NaN()
		bias[1] = math.Inf(1)
		bias[2] = math.Inf(-1)
		bias[3] = 1e300

		y := NewMatrix[float64](m, n)
		grad := NewMatrix[float64](m, n)
		GemmBiasTanhGradOpt(Opts{}, nil, a, b, bias, y, grad)
		checkRowsBitEqual(t, fam.String()+" nonfinite y", y, R)
		checkRowsBitEqual(t, fam.String()+" nonfinite grad", grad, R)
		for i := 0; i < m; i++ {
			if !math.IsNaN(y.At(i, 0)) {
				t.Errorf("row %d: tanh(NaN) = %g, want NaN", i, y.At(i, 0))
			}
			if y.At(i, 1) != 1 || y.At(i, 2) != -1 || y.At(i, 3) != 1 {
				t.Errorf("row %d: saturated tanh = %g, %g, %g, want 1, -1, 1",
					i, y.At(i, 1), y.At(i, 2), y.At(i, 3))
			}
			if g := grad.At(i, 1); g != 0 {
				t.Errorf("row %d: grad at tanh=1 is %g, want 0", i, g)
			}
		}
	})
}

// TestSIMDNTLaneVsScalarModel is the same bitwise lane-vs-model check for
// the NT dot tile, driven through ntRowRange directly so small shapes
// (odd rows, column tails, k tails below the vector width) hit the asm.
func TestSIMDNTLaneVsScalarModel(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		if _, ok := simdCaps(fam, 8); !ok {
			t.Skip("no NT tile in this family")
		}
		rng := rand.New(rand.NewSource(123))
		for _, k := range []int{8, 25, 50, 51} {
			m, n := 3, 7 // one asm row pair + scalar odd row; 4 asm cols + 3 tail
			row := make([]float64, k)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			a := repeatedRows(row, m)
			b := randMatT[float64](rng, n, k)
			c0row := make([]float64, n)
			for i := range c0row {
				c0row[i] = rng.NormFloat64()
			}
			c := repeatedRows(c0row, m)
			ntRowRange(fam, 0, m, k, n, 1.5, a.Data, k, b.Data, k, -0.5, c.Data, n)
			checkRowsBitEqual(t, fmt.Sprintf("%s NT k=%d", fam, k), c, 2)
		}
	})
}

// ulp64 returns the distance |a-b| in units of b's last place.
func ulp64(a, b float64) float64 {
	if a == b {
		return 0
	}
	exp := math.Ilogb(b)
	return math.Abs(a-b) / math.Ldexp(1, exp-52)
}

// TestTanhApprox64ULP asserts the documented accuracy bound of the vector
// tanh polynomial: strictly less than 4 ulp from math.Tanh everywhere
// (measured max on dense sweeps is ~2 ulp), with exact saturation at
// |x| >= 20, exact zero at zero, and NaN/Inf handled like math.Tanh.
func TestTanhApprox64ULP(t *testing.T) {
	const bound = 4.0
	maxUlp := 0.0
	worst := 0.0
	check := func(x float64) {
		got := tanhApprox64(x)
		want := math.Tanh(x)
		if u := ulp64(got, want); u > maxUlp {
			maxUlp, worst = u, x
		}
	}
	// Dense uniform sweep across the active range and a log sweep into the
	// subnormal regime, both signs.
	const N = 400000
	for i := 0; i <= N; i++ {
		check(-22 + 44*float64(i)/N)
	}
	for i := 0; i <= N; i++ {
		x := math.Ldexp(1+float64(i%97)/97, -8-i*1050/N)
		check(x)
		check(-x)
	}
	if maxUlp >= bound {
		t.Errorf("tanhApprox64 max error %.3f ulp at x=%g, documented bound is < %g ulp", maxUlp, worst, bound)
	}
	t.Logf("tanhApprox64 max error %.3f ulp (at x=%g)", maxUlp, worst)

	for _, x := range []float64{20, -20, 25, -25, 700, -700, math.Inf(1), math.Inf(-1), 1e308} {
		want := 1.0
		if x < 0 {
			want = -1
		}
		if got := tanhApprox64(x); got != want {
			t.Errorf("tanhApprox64(%g) = %g, want exactly %g", x, got, want)
		}
	}
	if got := tanhApprox64(0); got != 0 || math.Signbit(got) {
		t.Errorf("tanhApprox64(0) = %g, want +0", got)
	}
	if got := tanhApprox64(math.Copysign(0, -1)); got != 0 || !math.Signbit(got) {
		t.Errorf("tanhApprox64(-0) = %g, want -0", got)
	}
	if got := tanhApprox64(math.NaN()); !math.IsNaN(got) {
		t.Errorf("tanhApprox64(NaN) = %g, want NaN", got)
	}
}

func TestKernelInfo(t *testing.T) {
	info := KernelInfo()
	if info.Family != cpufeat.Active().String() {
		t.Errorf("KernelInfo family %q, active %q", info.Family, cpufeat.Active())
	}
	if info.Arch != runtime.GOARCH {
		t.Errorf("KernelInfo arch %q, want %q", info.Arch, runtime.GOARCH)
	}
	if s := info.String(); s == "" {
		t.Error("KernelInfo banner is empty")
	}
}
