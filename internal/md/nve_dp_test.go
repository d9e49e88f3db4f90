package md

import (
	"math"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// nveDPConfig is the shared model of the Deep Potential NVE regressions:
// water-like, sized so the per-chunk embedding and fitting GEMMs cross
// the blocked tier's size rule (tensor.pickTier) — TinyConfig's
// defaults would route every layer to the naive reference and leave the
// blocked kernels untested here.
func nveDPConfig() core.Config {
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	cfg.Workers = 2 // exercise the parallel chunk path end to end
	cfg.ChunkSize = 64
	cfg.EmbedWidths = []int{8, 16, 32}
	cfg.MAxis = 8
	cfg.FitWidths = []int{32, 32, 32}
	// The untrained surface has no repulsive core; without the analytic
	// prior, close encounters turn the random network's 1/r-weighted
	// inputs into integrator blow-up rather than a kernel signal.
	cfg.RepA, cfg.RepRcut = 25, 0.8
	return cfg
}

// runNVEDrift runs the 200-step water NVE protocol with the given
// evaluator and returns the per-atom total-energy drift.
func runNVEDrift(t *testing.T, ev Potential) float64 {
	t.Helper()
	cfg := nveDPConfig()
	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 11)
	sys := &System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{units.MassO, units.MassH},
		Box:        cell.Box,
	}
	sys.InitVelocities(120, 5)

	sim, err := NewSim(sys, ev, Options{
		Dt:           0.00025, // 0.25 fs: half the paper's water step, for drift headroom on the untrained surface
		Spec:         neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel},
		RebuildEvery: 10,
		ThermoEvery:  25,
		SafetyCheck:  true,
		Workers:      cfg.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	e0pot, err := sim.PotentialEnergy()
	if err != nil {
		t.Fatal(err)
	}
	e0 := e0pot + sys.KineticEnergy()
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Result().Energy + sys.KineticEnergy()
	return math.Abs(e1-e0) / float64(sys.N())
}

// NVE energy conservation through the full Deep Potential pipeline: a
// short Quick-scale water run where the forces come from the optimized
// evaluator — embedding/fitting GEMMs, fused tanh kernels, descriptor
// contraction, ProdForce — rather than an analytic pair potential. The
// evaluator's forces are exact analytic gradients of its energy, so a
// symplectic integrator must conserve total energy to O(dt^2); a kernel
// rewrite that silently corrupts any GEMM (or its backward pass) breaks
// the gradient/energy consistency and shows up as drift here, failing
// tier-1 instead of only shifting benchmark numbers.
func TestNVEEnergyConservationDeepPotential(t *testing.T) {
	cfg := nveDPConfig()
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drift := runNVEDrift(t, core.NewEvaluator[float64](model))

	// Fixed per-atom bound: this surface conserves to a few 1e-7 eV/atom
	// over the horizon; 1e-5 leaves ~20x margin for platform FP
	// differences while still catching any force/energy inconsistency —
	// a corrupted kernel measures ~0.5 eV/atom here, five orders above.
	t.Logf("drift %.3g eV/atom over 200 steps", drift)
	if drift > 1e-5 {
		t.Fatalf("total-energy drift %.3g eV/atom over 200 steps", drift)
	}
}

// The same protocol on the compressed (tabulated-embedding) path. The
// table's derivative is the exact analytic derivative of the table's
// value — the quintic-Hermite spline is C² — so the compressed force
// field is just as conservative as the exact one: the drift bound is the
// *same* 1e-5 eV/atom as the exact path's, not a loosened one. The table
// changes the potential surface by ~1e-10 but not the gradient/energy
// consistency; a lookup kernel whose derivative disagreed with its value
// (e.g. a broken Horner or chain-rule factor) would blow the bound by
// orders of magnitude.
func TestNVEEnergyConservationCompressed(t *testing.T) {
	cfg := nveDPConfig()
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator[float64](model)
	if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	drift := runNVEDrift(t, ev)
	t.Logf("compressed drift %.3g eV/atom over 200 steps", drift)
	if drift > 1e-5 {
		t.Fatalf("compressed total-energy drift %.3g eV/atom over 200 steps", drift)
	}
}
