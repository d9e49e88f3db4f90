package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/neighbor"
)

// testSystem builds a random two-type configuration with a periodic box
// and its raw neighbor list.
func testSystem(t *testing.T, seed int64, n int, cfg *Config) ([]float64, []int, *neighbor.List, *neighbor.Box) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	box := &neighbor.Box{L: [3]float64{12, 12, 12}}
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * box.L[k]
		}
		types[i] = rng.Intn(cfg.NumTypes())
	}
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, n, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pos, types, list, box
}

func newTestModel(t *testing.T, ntypes int) *Model {
	t.Helper()
	cfg := TinyConfig(ntypes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The critical correctness test of the whole library: the analytic force
// must be the negative gradient of the energy with respect to every atomic
// coordinate, through the entire pipeline (environment matrix, embedding
// net, descriptor contraction, fitting net and all backward operators).
func TestForceIsNegativeEnergyGradient(t *testing.T) {
	m := newTestModel(t, 2)
	ev := NewEvaluator[float64](m)
	pos, types, list, box := testSystem(t, 1, 32, &m.Cfg)

	var res Result
	if err := ev.Compute(pos, types, 32, list, box, &res); err != nil {
		t.Fatal(err)
	}
	force := append([]float64(nil), res.Force...)

	const h = 1e-6
	energyAt := func() float64 {
		var r Result
		// A fresh list avoids slot-order changes from stale distances.
		if err := ev.Compute(pos, types, 32, list, box, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(32)
		a := rng.Intn(3)
		orig := pos[3*i+a]
		pos[3*i+a] = orig + h
		ep := energyAt()
		pos[3*i+a] = orig - h
		em := energyAt()
		pos[3*i+a] = orig
		want := -(ep - em) / (2 * h)
		got := force[3*i+a]
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("force[%d,%d] = %g, -dE/dx = %g", i, a, got, want)
		}
	}
}

// The virial must equal the strain derivative of the energy:
// W_ab = -dE/d(eps_ab) under a uniform affine deformation x -> (1+eps) x.
func TestVirialIsStrainDerivative(t *testing.T) {
	m := newTestModel(t, 1)
	ev := NewEvaluator[float64](m)
	pos, types, list, box := testSystem(t, 3, 24, &m.Cfg)

	var res Result
	if err := ev.Compute(pos, types, 24, list, box, &res); err != nil {
		t.Fatal(err)
	}

	// Apply a small isotropic strain to positions and box; the trace of
	// the virial equals -dE/deps (eps the linear strain) by the virial
	// theorem for pair-decomposable gradients.
	const h = 1e-6
	energyScaled := func(eps float64) float64 {
		sp := make([]float64, len(pos))
		for i, v := range pos {
			sp[i] = v * (1 + eps)
		}
		sbox := &neighbor.Box{L: [3]float64{box.L[0] * (1 + eps), box.L[1] * (1 + eps), box.L[2] * (1 + eps)}}
		slist, err := neighbor.Build(neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: m.Cfg.Skin, Sel: m.Cfg.Sel}, sp, types, 24, sbox, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r Result
		if err := ev.Compute(sp, types, 24, slist, sbox, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	dE := (energyScaled(h) - energyScaled(-h)) / (2 * h)
	traceW := res.Virial[0] + res.Virial[4] + res.Virial[8]
	if math.Abs(traceW-(-dE)) > 1e-4*(1+math.Abs(dE)) {
		t.Fatalf("tr(W) = %g, -dE/deps = %g", traceW, -dE)
	}
}

// Baseline and optimized evaluators must agree to floating-point accuracy:
// the optimizations must not change the mathematics (Sec. 5).
func TestBaselineMatchesOptimized(t *testing.T) {
	m := newTestModel(t, 2)
	opt := NewEvaluator[float64](m)
	base := NewBaselineEvaluator(m)
	pos, types, list, box := testSystem(t, 4, 40, &m.Cfg)

	var ro, rb Result
	if err := opt.Compute(pos, types, 40, list, box, &ro); err != nil {
		t.Fatal(err)
	}
	if err := base.Compute(pos, types, 40, list, box, &rb); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ro.Energy - rb.Energy); d > 1e-10 {
		t.Fatalf("energy differs by %g", d)
	}
	for i := range ro.Force {
		if d := math.Abs(ro.Force[i] - rb.Force[i]); d > 1e-10 {
			t.Fatalf("force[%d] differs by %g", i, d)
		}
	}
	for i := range ro.Virial {
		if d := math.Abs(ro.Virial[i] - rb.Virial[i]); d > 1e-9 {
			t.Fatalf("virial[%d] differs by %g", i, d)
		}
	}
}

// Mixed precision must track double precision closely (Sec. 7.1.3 reports
// 0.32 meV/molecule energy deviation and 0.029 eV/A force RMSD for real
// water; here we assert proportionally small deviations).
func TestMixedPrecisionDeviation(t *testing.T) {
	m := newTestModel(t, 2)
	evD := NewEvaluator[float64](m)
	evM := NewEvaluator[float32](m)
	pos, types, list, box := testSystem(t, 5, 48, &m.Cfg)

	var rd, rm Result
	if err := evD.Compute(pos, types, 48, list, box, &rd); err != nil {
		t.Fatal(err)
	}
	if err := evM.Compute(pos, types, 48, list, box, &rm); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rd.Energy-rm.Energy) / 48; d > 1e-3 {
		t.Fatalf("per-atom energy deviation %g eV too large", d)
	}
	var rmsd float64
	for i := range rd.Force {
		diff := rd.Force[i] - rm.Force[i]
		rmsd += diff * diff
	}
	rmsd = math.Sqrt(rmsd / float64(len(rd.Force)))
	if rmsd > 5e-3 {
		t.Fatalf("force RMSD %g eV/A too large", rmsd)
	}
}

// Rigid translation of the whole system must not change energy, and total
// force must vanish (momentum conservation).
func TestTranslationInvarianceAndForceSum(t *testing.T) {
	m := newTestModel(t, 2)
	ev := NewEvaluator[float64](m)
	pos, types, list, box := testSystem(t, 6, 36, &m.Cfg)

	var r0 Result
	if err := ev.Compute(pos, types, 36, list, box, &r0); err != nil {
		t.Fatal(err)
	}
	var fsum [3]float64
	for i := 0; i < 36; i++ {
		for a := 0; a < 3; a++ {
			fsum[a] += r0.Force[3*i+a]
		}
	}
	for a := 0; a < 3; a++ {
		if math.Abs(fsum[a]) > 1e-9 {
			t.Fatalf("net force component %d = %g", a, fsum[a])
		}
	}

	shifted := make([]float64, len(pos))
	for i := 0; i < 36; i++ {
		shifted[3*i] = pos[3*i] + 1.37
		shifted[3*i+1] = pos[3*i+1] - 0.72
		shifted[3*i+2] = pos[3*i+2] + 0.11
	}
	slist, err := neighbor.Build(neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: m.Cfg.Skin, Sel: m.Cfg.Sel}, shifted, types, 36, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r1 Result
	if err := ev.Compute(shifted, types, 36, slist, box, &r1); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r0.Energy - r1.Energy); d > 1e-9 {
		t.Fatalf("translation changed energy by %g", d)
	}
}

// Rotating the whole system must not change the energy: the descriptor is
// rotationally invariant by construction (Fig. 2(b)).
func TestRotationInvariance(t *testing.T) {
	m := newTestModel(t, 2)
	ev := NewEvaluator[float64](m)

	// Build a cluster (open boundaries) so rotation is exact.
	rng := rand.New(rand.NewSource(7))
	n := 20
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * 5
		}
		types[i] = rng.Intn(2)
	}
	spec := neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: m.Cfg.Skin, Sel: m.Cfg.Sel}
	list, err := neighbor.Build(spec, pos, types, n, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r0 Result
	if err := ev.Compute(pos, types, n, list, nil, &r0); err != nil {
		t.Fatal(err)
	}

	// Rotation by arbitrary Euler angles.
	a, b, c := 0.7, -1.2, 2.1
	rot := func(p [3]float64) [3]float64 {
		// Rz(a)
		p = [3]float64{math.Cos(a)*p[0] - math.Sin(a)*p[1], math.Sin(a)*p[0] + math.Cos(a)*p[1], p[2]}
		// Ry(b)
		p = [3]float64{math.Cos(b)*p[0] + math.Sin(b)*p[2], p[1], -math.Sin(b)*p[0] + math.Cos(b)*p[2]}
		// Rx(c)
		return [3]float64{p[0], math.Cos(c)*p[1] - math.Sin(c)*p[2], math.Sin(c)*p[1] + math.Cos(c)*p[2]}
	}
	rpos := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		p := rot([3]float64{pos[3*i], pos[3*i+1], pos[3*i+2]})
		rpos[3*i], rpos[3*i+1], rpos[3*i+2] = p[0], p[1], p[2]
	}
	rlist, err := neighbor.Build(spec, rpos, types, n, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r1 Result
	if err := ev.Compute(rpos, types, n, rlist, nil, &r1); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r0.Energy - r1.Energy); d > 1e-9 {
		t.Fatalf("rotation changed energy by %g", d)
	}
}

// Permuting atom order (of same-type atoms) must not change the energy.
func TestPermutationInvariance(t *testing.T) {
	m := newTestModel(t, 1)
	ev := NewEvaluator[float64](m)
	pos, types, list, box := testSystem(t, 8, 30, &m.Cfg)
	var r0 Result
	if err := ev.Compute(pos, types, 30, list, box, &r0); err != nil {
		t.Fatal(err)
	}
	// Reverse the atom order.
	n := 30
	ppos := make([]float64, 3*n)
	ptypes := make([]int, n)
	for i := 0; i < n; i++ {
		j := n - 1 - i
		copy(ppos[3*i:3*i+3], pos[3*j:3*j+3])
		ptypes[i] = types[j]
	}
	plist, err := neighbor.Build(neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: m.Cfg.Skin, Sel: m.Cfg.Sel}, ppos, ptypes, n, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r1 Result
	if err := ev.Compute(ppos, ptypes, n, plist, box, &r1); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r0.Energy - r1.Energy); d > 1e-10 {
		t.Fatalf("permutation changed energy by %g", d)
	}
}

// Parallel chunk evaluation must be deterministic and identical to serial.
func TestParallelWorkersMatchSerial(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.ChunkSize = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewEvaluator[float64](m)

	cfgP := cfg
	cfgP.Workers = 4
	mP := &Model{Cfg: cfgP, Embed: m.Embed, Fit: m.Fit}
	par := NewEvaluator[float64](mP)

	// The trainer's configuration: serial chunk loop, parallel GEMM rows.
	gemm := NewEvaluator[float64](m)
	gemm.SetGemmWorkers(4)

	pos, types, list, box := testSystem(t, 9, 50, &cfg)
	var rs Result
	if err := serial.Compute(pos, types, 50, list, box, &rs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ev   *Evaluator[float64]
	}{{"parallel", par}, {"gemm-workers", gemm}} {
		var rp Result
		if err := c.ev.Compute(pos, types, 50, list, box, &rp); err != nil {
			t.Fatal(err)
		}
		if rs.Energy != rp.Energy {
			t.Fatalf("%s energy %g != serial %g", c.name, rp.Energy, rs.Energy)
		}
		for i := range rs.Force {
			if rs.Force[i] != rp.Force[i] {
				t.Fatalf("%s force[%d] differs", c.name, i)
			}
		}
	}
}

func TestModelSaveLoadRoundtrip(t *testing.T) {
	m := newTestModel(t, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != m.NumParams() {
		t.Fatalf("param count changed: %d -> %d", m.NumParams(), loaded.NumParams())
	}
	pos, types, list, box := testSystem(t, 10, 20, &m.Cfg)
	var r0, r1 Result
	if err := NewEvaluator[float64](m).Compute(pos, types, 20, list, box, &r0); err != nil {
		t.Fatal(err)
	}
	if err := NewEvaluator[float64](loaded).Compute(pos, types, 20, list, box, &r1); err != nil {
		t.Fatal(err)
	}
	if r0.Energy != r1.Energy {
		t.Fatalf("roundtrip changed energy: %g != %g", r0.Energy, r1.Energy)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TypeNames = nil },
		func(c *Config) { c.Masses = c.Masses[:1] },
		func(c *Config) { c.Sel = c.Sel[:1] },
		func(c *Config) { c.Rcut = -1 },
		func(c *Config) { c.RcutSmth = c.Rcut + 1 },
		func(c *Config) { c.EmbedWidths = nil },
		func(c *Config) { c.MAxis = 0 },
		func(c *Config) { c.MAxis = 10000 },
		func(c *Config) { c.AtomEnerBias = []float64{1} },
	}
	for i, mut := range bad {
		cfg := TinyConfig(2)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d not rejected", i)
		}
	}
	good := TinyConfig(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.ChunkSize <= 0 || good.Workers <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestPaperConfigs(t *testing.T) {
	w := WaterConfig()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Stride() != 138 {
		t.Fatalf("water stride = %d, want 138 (sel 46+92)", w.Stride())
	}
	if w.DescriptorDim() != 1600 {
		t.Fatalf("water descriptor dim = %d, want 1600", w.DescriptorDim())
	}
	c := CopperConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Stride() != 500 {
		t.Fatalf("copper stride = %d, want 500", c.Stride())
	}
}

// The analytic FLOP model must reproduce the paper's copper/water per-atom
// cost ratio of ~3.3-3.6 (Sec. 6.1: copper is "3.5 times bigger ... due to
// the larger number of neighbors").
func TestFLOPModelCopperWaterRatio(t *testing.T) {
	w := WaterConfig()
	c := CopperConfig()
	fw := w.FLOPsPerAtomStep([]float64{1.0 / 3, 2.0 / 3}) // H2O composition
	fc := c.FLOPsPerAtomStep([]float64{1})
	ratio := fc / fw
	if ratio < 2.5 || ratio > 4.5 {
		t.Fatalf("copper/water FLOP ratio = %.2f, expected ~3.5", ratio)
	}
	// Order of magnitude: the paper measures 19.8 MFLOPs/atom/step for
	// water; the analytic model must land within a factor of ~3.
	if fw < 5e6 || fw > 6e7 {
		t.Fatalf("water FLOPs/atom/step = %g, out of plausible range", fw)
	}
}

func TestEvaluatorRejectsBadTypes(t *testing.T) {
	m := newTestModel(t, 1)
	ev := NewEvaluator[float64](m)
	pos := []float64{0, 0, 0, 2, 0, 0}
	types := []int{0, 5}
	list, err := neighbor.Build(neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: 0, Sel: m.Cfg.Sel}, pos, types, 2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := ev.Compute(pos, types, 2, list, nil, &r); err == nil {
		t.Fatal("expected type range error")
	}
}

// The arena must stop allocating after the first step (the init-time
// memory trunk of Sec. 5.2.2).
func TestArenaSteadyState(t *testing.T) {
	m := newTestModel(t, 2)
	ev := NewEvaluator[float64](m)
	pos, types, list, box := testSystem(t, 11, 40, &m.Cfg)
	var r Result
	if err := ev.Compute(pos, types, 40, list, box, &r); err != nil {
		t.Fatal(err)
	}
	// After growArenas, a second identical evaluation must fit the slab.
	if err := ev.Compute(pos, types, 40, list, box, &r); err != nil {
		t.Fatal(err)
	}
	for _, a := range ev.arenas {
		if a.MaxPeak() > a.Cap() {
			t.Fatalf("arena still overflowing: peak %d > cap %d", a.MaxPeak(), a.Cap())
		}
	}
}

// The core-repulsion prior must preserve F = -dE/dx and blow up smoothly:
// zero at its cutoff, monotonically repulsive below it.
func TestCoreRepulsionPrior(t *testing.T) {
	cfg := TinyConfig(1)
	cfg.RepA = 15
	cfg.RepRcut = 1.6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float64](m)

	// Two atoms closer than RepRcut: energy must exceed the prior-free
	// model and push them apart.
	mkList := func(pos []float64) *neighbor.List {
		l, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, pos, []int{0, 0}, 2, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	pos := []float64{0, 0, 0, 0.8, 0, 0}
	var withPrior Result
	if err := ev.Compute(pos, []int{0, 0}, 2, mkList(pos), nil, &withPrior); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.RepA = 0
	m2 := &Model{Cfg: cfg2, Embed: m.Embed, Fit: m.Fit}
	var noPrior Result
	if err := NewEvaluator[float64](m2).Compute(pos, []int{0, 0}, 2, mkList(pos), nil, &noPrior); err != nil {
		t.Fatal(err)
	}
	if withPrior.Energy <= noPrior.Energy {
		t.Fatalf("prior did not raise energy: %g vs %g", withPrior.Energy, noPrior.Energy)
	}
	// Repulsive: force on atom 0 points in -x, on atom 1 in +x.
	dF0 := withPrior.Force[0] - noPrior.Force[0]
	dF3 := withPrior.Force[3] - noPrior.Force[3]
	if dF0 >= 0 || dF3 <= 0 {
		t.Fatalf("prior forces not repulsive: %g, %g", dF0, dF3)
	}

	// Finite-difference check through the full model with prior.
	const h = 1e-6
	energyAt := func(p []float64) float64 {
		var r Result
		if err := ev.Compute(p, []int{0, 0}, 2, mkList(p), nil, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	for a := 0; a < 3; a++ {
		orig := pos[3+a]
		pos[3+a] = orig + h
		ep := energyAt(pos)
		pos[3+a] = orig - h
		em := energyAt(pos)
		pos[3+a] = orig
		want := -(ep - em) / (2 * h)
		if math.Abs(withPrior.Force[3+a]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("prior force[%d] = %g, finite diff %g", a, withPrior.Force[3+a], want)
		}
	}
	// Beyond the prior cutoff the two models agree exactly.
	far := []float64{0, 0, 0, 2.5, 0, 0}
	var a1, a2 Result
	if err := ev.Compute(far, []int{0, 0}, 2, mkList(far), nil, &a1); err != nil {
		t.Fatal(err)
	}
	if err := NewEvaluator[float64](m2).Compute(far, []int{0, 0}, 2, mkList(far), nil, &a2); err != nil {
		t.Fatal(err)
	}
	if a1.Energy != a2.Energy {
		t.Fatalf("prior active beyond cutoff: %g vs %g", a1.Energy, a2.Energy)
	}
}

// Property: forces are rotationally covariant — rotating the whole
// configuration rotates the forces: F(Rx) = R F(x). This is a stronger
// statement than energy invariance (it checks the full gradient path).
func TestForceRotationCovariance(t *testing.T) {
	m := newTestModel(t, 2)
	ev := NewEvaluator[float64](m)
	rng := rand.New(rand.NewSource(31))
	n := 16
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * 5
		}
		types[i] = rng.Intn(2)
	}
	spec := neighbor.Spec{Rcut: m.Cfg.Rcut, Skin: m.Cfg.Skin, Sel: m.Cfg.Sel}
	list, err := neighbor.Build(spec, pos, types, n, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r0 Result
	if err := ev.Compute(pos, types, n, list, nil, &r0); err != nil {
		t.Fatal(err)
	}
	f0 := append([]float64(nil), r0.Force...)

	// A rotation about an arbitrary axis.
	rot := [3][3]float64{}
	{
		a, b := 0.9, -0.4
		ca, sa := math.Cos(a), math.Sin(a)
		cb, sb := math.Cos(b), math.Sin(b)
		// Rz(a) * Ry(b)
		rot = [3][3]float64{
			{ca * cb, -sa, ca * sb},
			{sa * cb, ca, sa * sb},
			{-sb, 0, cb},
		}
	}
	apply := func(v []float64, i int) [3]float64 {
		return [3]float64{
			rot[0][0]*v[3*i] + rot[0][1]*v[3*i+1] + rot[0][2]*v[3*i+2],
			rot[1][0]*v[3*i] + rot[1][1]*v[3*i+1] + rot[1][2]*v[3*i+2],
			rot[2][0]*v[3*i] + rot[2][1]*v[3*i+1] + rot[2][2]*v[3*i+2],
		}
	}
	rpos := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		p := apply(pos, i)
		rpos[3*i], rpos[3*i+1], rpos[3*i+2] = p[0], p[1], p[2]
	}
	rlist, err := neighbor.Build(spec, rpos, types, n, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r1 Result
	if err := ev.Compute(rpos, types, n, rlist, nil, &r1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := apply(f0, i)
		for a := 0; a < 3; a++ {
			if d := math.Abs(r1.Force[3*i+a] - want[a]); d > 1e-9 {
				t.Fatalf("atom %d force component %d: rotated %g, want %g", i, a, r1.Force[3*i+a], want[a])
			}
		}
	}
}

// Failure injection: a neighbor index beyond the 64-bit compression range
// must surface as an error, not silent corruption (Sec. 5.2.2's "rarely
// exceeded" ranges are checked).
func TestCompressionOverflowSurfaces(t *testing.T) {
	m := newTestModel(t, 1)
	ev := NewEvaluator[float64](m)
	// Hand-craft a list whose entry index exceeds MaxIndex.
	pos := make([]float64, 3*(neighbor.MaxIndex+2))
	types := make([]int, neighbor.MaxIndex+2)
	pos[3*(neighbor.MaxIndex+1)] = 1.0 // close neighbor with a huge index
	list := &neighbor.List{
		Nloc: 1,
		Entries: [][]neighbor.Entry{{
			{Type: 0, Dist: 1.0, Index: neighbor.MaxIndex + 1},
		}},
	}
	var res Result
	if err := ev.Compute(pos, types, 1, list, nil, &res); err == nil {
		t.Fatal("index overflow not surfaced")
	}
}

// Failure injection: NaN positions must not crash the pipeline silently —
// energies become NaN, which the MD thermo makes visible. This documents
// the contract rather than hiding it.
func TestNaNPositionsPropagate(t *testing.T) {
	m := newTestModel(t, 1)
	ev := NewEvaluator[float64](m)
	pos := []float64{0, 0, 0, math.NaN(), 0, 0}
	types := []int{0, 0}
	list := &neighbor.List{Nloc: 2, Entries: [][]neighbor.Entry{
		{{Type: 0, Dist: 1, Index: 1}},
		{{Type: 0, Dist: 1, Index: 0}},
	}}
	var res Result
	if err := ev.Compute(pos, types, 2, list, nil, &res); err != nil {
		return // an error is acceptable too
	}
	if !math.IsNaN(res.Energy) && res.Energy != 0 {
		t.Fatalf("NaN input produced finite nonzero energy %g", res.Energy)
	}
}
