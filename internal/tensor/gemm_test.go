package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepmd-go/internal/tensor/cpufeat"
)

// naiveMul is the reference O(n^3) triple loop used to validate the blocked
// kernels.
func naiveMul(a, b Matrix[float64]) Matrix[float64] {
	c := NewMatrix[float64](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for l := 0; l < a.Cols; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randMat(rng *rand.Rand, rows, cols int) Matrix[float64] {
	m := NewMatrix[float64](rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matsClose(t *testing.T, got, want Matrix[float64], tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 1, 9}, {16, 16, 16}, {33, 17, 29}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := NewMatrix[float64](m, n)
		GemmOpt(Opts{}, nil, 1, a, b, 0, c)
		matsClose(t, c, naiveMul(a, b), 1e-12)
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 5, 6), randMat(rng, 6, 7)
	c0 := randMat(rng, 5, 7)
	c := c0.Clone()
	GemmOpt(Opts{}, nil, 2.5, a, b, -0.5, c)
	ref := naiveMul(a, b)
	for i := range ref.Data {
		ref.Data[i] = 2.5*ref.Data[i] - 0.5*c0.Data[i]
	}
	matsClose(t, c, ref, 1e-12)
}

func TestGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, bT := randMat(rng, 4, 6), randMat(rng, 5, 6) // B^T stored: 5x6 means B is 6x5
	c := NewMatrix[float64](4, 5)
	GemmNTOpt(Opts{}, nil, 1, a, bT, 0, c)
	// reference: transpose bT and multiply
	b := NewMatrix[float64](6, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			b.Set(j, i, bT.At(i, j))
		}
	}
	matsClose(t, c, naiveMul(a, b), 1e-12)
}

func TestGemmTN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	aT, b := randMat(rng, 6, 4), randMat(rng, 6, 5) // A^T stored as 6x4 means A is 4x6
	c := NewMatrix[float64](4, 5)
	GemmTNOpt(Opts{}, nil, 1, aT, b, 0, c)
	a := NewMatrix[float64](4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			a.Set(j, i, aT.At(i, j))
		}
	}
	matsClose(t, c, naiveMul(a, b), 1e-12)
}

func TestGemmAccumulatesWithBetaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(rng, 3, 3), randMat(rng, 3, 3)
	c := NewMatrix[float64](3, 3)
	GemmOpt(Opts{}, nil, 1, a, b, 0, c)
	first := c.Clone()
	GemmOpt(Opts{}, nil, 1, a, b, 1, c)
	for i := range c.Data {
		if math.Abs(c.Data[i]-2*first.Data[i]) > 1e-12 {
			t.Fatalf("beta=1 accumulation failed at %d", i)
		}
	}
}

// Property: GEMM is linear in A, i.e. (A1+A2)*B == A1*B + A2*B.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1, a2, b := randMat(rng, m, k), randMat(rng, m, k), randMat(rng, k, n)
		sum := NewMatrix[float64](m, k)
		for i := range sum.Data {
			sum.Data[i] = a1.Data[i] + a2.Data[i]
		}
		c1 := NewMatrix[float64](m, n)
		c2 := NewMatrix[float64](m, n)
		cs := NewMatrix[float64](m, n)
		GemmOpt(Opts{}, nil, 1, a1, b, 0, c1)
		GemmOpt(Opts{}, nil, 1, a2, b, 1, c1) // accumulate
		GemmOpt(Opts{}, nil, 1, sum, b, 0, cs)
		GemmOpt(Opts{}, nil, 1, a1, b, 0, c2)
		_ = c2
		for i := range cs.Data {
			if math.Abs(cs.Data[i]-c1.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndAxpy(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := []float64{7, 6, 5, 4, 3, 2, 1}
	if got := dot(a, b); got != 84 {
		t.Fatalf("dot = %v, want 84", got)
	}
	dst := make([]float64, 7)
	axpy(2, a, dst)
	for i := range dst {
		if dst[i] != 2*a[i] {
			t.Fatalf("axpy wrong at %d: %v", i, dst[i])
		}
	}
}

func TestGemmFLOPAccounting(t *testing.T) {
	ctr := newTestCounter()
	a, b := NewMatrix[float64](3, 4), NewMatrix[float64](4, 5)
	c := NewMatrix[float64](3, 5)
	GemmOpt(Opts{}, ctr, 1, a, b, 0, c)
	if got, want := ctr.FLOPs(), int64(2*3*4*5); got != want {
		t.Fatalf("FLOPs = %d, want %d", got, want)
	}
}

func TestGemmPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	a, b := NewMatrix[float64](3, 4), NewMatrix[float64](5, 6)
	c := NewMatrix[float64](3, 6)
	GemmOpt(Opts{}, nil, 1, a, b, 0, c)
}

var tierNames = [...]string{tierNaive: "naive", tierSIMD: "simd", tierBlocked: "blocked"}

// TestPickTier pins the one tier decision on the shapes the benchmark
// workloads run (per-item m, k, n in the entry points' convention) and on
// both sides of the size rule. Rows marked simd go to the SIMD strips on
// every SIMD family and to want under Generic.
func TestPickTier(t *testing.T) {
	cases := []struct {
		name        string
		l           layout
		batch       int
		m, k, n     int
		naive, zero bool // Kernel = Naive; alpha = 0
		want        tier
		simd        bool
	}{
		{name: "water-md dG contraction k=100", l: layoutN, batch: 16, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "water-md forward contraction k=100", l: layoutTN, batch: 16, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "water-md dT contraction k=16", l: layoutN, batch: 16, m: 100, k: 16, n: 4, want: tierNaive},
		{name: "water-md dT-sub contraction k=16", l: layoutTN, batch: 16, m: 100, k: 16, n: 4, want: tierNaive},
		{name: "first fitting layer K=1600", l: layoutN, batch: 1, m: 256, k: 1600, n: 240, want: tierBlocked},
		{name: "copper-md output layer m=96", l: layoutN, batch: 1, m: 96, k: 240, n: 1, want: tierNaive},
		{name: "copper-md output layer m=256", l: layoutN, batch: 1, m: 256, k: 240, n: 1, want: tierBlocked},
		{name: "water-tcp2 fitting backward", l: layoutNT, batch: 1, m: 8, k: 24, n: 24, want: tierNaive},

		{name: "rule: batch 1 below 2^15", l: layoutN, batch: 1, m: 46, k: 100, n: 4, want: tierNaive},
		{name: "rule: batch 2 above 2^15", l: layoutN, batch: 2, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "rule: batch 4", l: layoutN, batch: 4, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "rule: batch 1 at 2^15", l: layoutN, batch: 1, m: 32, k: 256, n: 4, want: tierBlocked},
		{name: "rule: item below 2^13", l: layoutN, batch: 1000, m: 100, k: 16, n: 4, want: tierNaive},
		{name: "rule: depth 7", l: layoutN, batch: 16, m: 100, k: 7, n: 16, want: tierNaive},
		{name: "rule: three rows", l: layoutN, batch: 16, m: 3, k: 100, n: 100, want: tierNaive},
		{name: "rule: TN rows are k", l: layoutTN, batch: 16, m: 100, k: 3, n: 100, want: tierNaive},

		// Short batches: the per-call bound decides, so a chunk of one to
		// three atoms (the per-type remainder of ChunkSize) runs core's
		// k=100 contractions naive at batch 1 and packed at batch 2 and 3,
		// and never on the strips (n = 4 is below every column chunk).
		{name: "tail chunk forward contraction batch 1", l: layoutTN, batch: 1, m: 46, k: 100, n: 4, want: tierNaive},
		{name: "tail chunk forward contraction batch 2", l: layoutTN, batch: 2, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "tail chunk forward contraction batch 3", l: layoutTN, batch: 3, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "tail chunk dG contraction batch 3", l: layoutN, batch: 3, m: 46, k: 100, n: 4, want: tierBlocked},
		{name: "tail chunk dT contraction batch 1", l: layoutN, batch: 1, m: 100, k: 16, n: 4, want: tierNaive},

		{name: "embedding k=1", l: layoutN, batch: 1, m: 4096, k: 1, n: 25, want: tierNaive, simd: true},
		{name: "embedding 25->50", l: layoutN, batch: 1, m: 4096, k: 25, n: 50, want: tierBlocked, simd: true},
		{name: "fitting 240x240", l: layoutN, batch: 1, m: 256, k: 240, n: 240, want: tierBlocked, simd: true},
		{name: "fitting backward 240x240", l: layoutNT, batch: 1, m: 256, k: 240, n: 240, want: tierBlocked, simd: true},
		{name: "water-tcp2 fitting layer", l: layoutN, batch: 1, m: 8, k: 24, n: 24, want: tierNaive, simd: true},
		{name: "strips are batch-1 only", l: layoutN, batch: 2, m: 256, k: 240, n: 240, want: tierBlocked},
		{name: "no strips for TN", l: layoutTN, batch: 1, m: 256, k: 240, n: 240, want: tierBlocked},
		{name: "Kernel = Naive", l: layoutN, batch: 1, m: 256, k: 240, n: 240, naive: true, want: tierNaive},
		{name: "alpha = 0", l: layoutN, batch: 1, m: 256, k: 240, n: 240, zero: true, want: tierBlocked},
	}
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		for _, c := range cases {
			want := c.want
			if c.simd && fam != cpufeat.Generic {
				want = tierSIMD
			}
			var o Opts
			if c.naive {
				o.Kernel = Naive
			}
			alpha := 1.0
			if c.zero {
				alpha = 0
			}
			if got, _ := pickTier(o, c.l, c.batch, c.m, c.k, c.n, alpha); got != want {
				t.Errorf("%s (float64): %s tier, want %s", c.name, tierNames[got], tierNames[want])
			}
			if got, _ := pickTier(o, c.l, c.batch, c.m, c.k, c.n, float32(alpha)); got != want {
				t.Errorf("%s (float32): %s tier, want %s", c.name, tierNames[got], tierNames[want])
			}
		}
	})
}
