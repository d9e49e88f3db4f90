package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"

	deepmd "deepmd-go"
)

// mdWorkload is a serial NVE run at the paper's geometry and cadence.
type mdWorkload struct {
	name      string
	cfg       core.Config
	water     bool // water box of nx^3 molecules, else copper of nx^3 FCC cells
	nx        int
	dt        float64 // ps
	strategy  deepmd.Strategy
	precision deepmd.Precision
	workers   int
	// oracle is the plan the first frame is checked against, and relTol
	// the per-element tolerance relTol*(1+|want|) of that comparison.
	oracle deepmd.Strategy
	relTol float64
}

const (
	rebuildEvery = 50 // paper cadence (Sec. 6.1)
	thermoEvery  = 20
	tempK        = 330
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps = 3
)

func waterMD() mdWorkload {
	return mdWorkload{
		name: "water-md", cfg: core.WaterConfig(), water: true, nx: 6, dt: 0.0005,
		strategy: deepmd.Batched, precision: deepmd.Double, workers: 2,
		// The batched pipeline against the per-atom oracle, at the
		// float64 tolerance of core's TestBatchedEvaluatorMatchesPerAtom.
		oracle: deepmd.PerAtom, relTol: 1e-11,
	}
}

func copperMD() mdWorkload {
	return mdWorkload{
		name: "copper-md", cfg: core.CopperConfig(), nx: 6, dt: 0.001,
		strategy: deepmd.Compressed, precision: deepmd.Mixed, workers: 2,
		// Compressed mixed against exact batched double: the table's
		// resolution-tied 1e-8 plus the float32 2e-4 budget of core's
		// TestCompressedEvaluatorMatchesBatched.
		oracle: deepmd.Batched, relTol: 1e-8 + 2e-4,
	}
}

func (w mdWorkload) spec() neighbor.Spec {
	return neighbor.Spec{Rcut: w.cfg.Rcut, Skin: w.cfg.Skin, Sel: w.cfg.Sel}
}

// system generates the workload's input from the seed: water molecules
// with seeded orientations, or an FCC copper lattice with seeded 0.05 A
// displacements; Boltzmann velocities at 330 K from seed+1.
func (w mdWorkload) system(seed int64) *md.System {
	var sys *md.System
	if w.water {
		sys = deepmd.BuildWater(w.nx, w.nx, w.nx, seed)
	} else {
		sys = deepmd.BuildCopper(w.nx, w.nx, w.nx)
		rng := rand.New(rand.NewSource(seed))
		for i := range sys.Pos {
			sys.Pos[i] += 0.05 * rng.NormFloat64()
		}
	}
	sys.InitVelocities(tempK, seed+1)
	return sys
}

// mdRun is one set-up workload instance.
type mdRun struct {
	model *core.Model
	sys   *md.System
	sim   *md.Sim
	pot   *timedPot
}

// setup builds the model (fixed weights, the configuration's seed), tabulates it when the
// plan is compressed, opens the engine, generates the system, builds the
// initial neighbor list and runs the first force evaluation, which warms
// the engine's evaluator. Everything up to the first timed step.
func (w mdWorkload) setup(seed int64) (*mdRun, error) {
	model, err := core.New(w.cfg)
	if err != nil {
		return nil, err
	}
	if w.strategy == deepmd.Compressed {
		if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
			return nil, err
		}
	}
	eng, err := deepmd.Open(model, deepmd.WithStrategy(w.strategy), deepmd.WithPrecision(w.precision),
		deepmd.WithWorkers(w.workers), deepmd.WithMaxConcurrency(1))
	if err != nil {
		return nil, err
	}
	sys := w.system(seed)
	pot := &timedPot{inner: eng}
	sim, err := md.NewSim(sys, pot, md.Options{
		Dt: w.dt, Spec: w.spec(), RebuildEvery: rebuildEvery, ThermoEvery: thermoEvery, Workers: w.workers,
	})
	if err != nil {
		return nil, err
	}
	if _, err := sim.PotentialEnergy(); err != nil {
		return nil, err
	}
	return &mdRun{model: model, sys: sys, sim: sim, pot: pot}, nil
}

// frame is the simulation's current configuration with a freshly built
// list (positions are wrapped at every rebuild, so this is the list the
// simulation holds after a rebuild at these positions).
func (r *mdRun) frame(spec neighbor.Spec, workers int) (frame, error) {
	sys := r.sys
	list, err := neighbor.Build(spec, sys.Pos, sys.Types, sys.N(), &sys.Box, workers)
	if err != nil {
		return frame{}, err
	}
	return frame{pos: sys.Pos, types: sys.Types, nloc: sys.N(), list: list, box: &sys.Box}, nil
}

// timedPot is the benchmark's timing wrapper around the md.Potential the
// simulation calls. With no tracer it only forwards.
type timedPot struct {
	inner  md.Potential
	tr     *Tracer
	parent int // current md.Step span
}

func (p *timedPot) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	if p.tr == nil {
		return p.inner.Compute(pos, types, nloc, list, box, out)
	}
	id := p.tr.Begin("core.Compute", p.parent)
	err := p.inner.Compute(pos, types, nloc, list, box, out)
	p.tr.End(id)
	return err
}

// stepLoop runs steps until budget has elapsed, returning per-step wall
// times (ms), the loop's wall time and how many steps produced a
// non-finite energy or force. With a tracer it records an md.Step span
// per step and, after every rebuild step, replays the rebuild's
// neighbor.Build on the identical wrapped positions under a
// neighbor.Build span (the build inside Sim.Step cannot be wrapped from
// outside).
func (r *mdRun) stepLoop(budget time.Duration, tr *Tracer, spec neighbor.Spec, workers int) (steps []float64, loop time.Duration, bad int, err error) {
	r.pot.tr = tr
	defer func() { r.pot.tr = nil }()
	start := time.Now()
	for time.Since(start) < budget {
		id := tr.Begin("md.Step", 0)
		r.pot.parent = id
		t := time.Now()
		if err := r.sim.Step(); err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(t)
		tr.End(id)
		steps = append(steps, ms(d))
		res := r.sim.Result()
		if !allFinite(res.Force) || math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
			bad++
		}
		if tr != nil && r.sim.CurrentStep()%rebuildEvery == 0 {
			sys := r.sys
			t := time.Now()
			if _, err := neighbor.Build(spec, sys.Pos, sys.Types, sys.N(), &sys.Box, workers); err != nil {
				return nil, 0, 0, err
			}
			tr.Add("neighbor.Build", 0, t, time.Since(t))
		}
	}
	return steps, time.Since(start), bad, nil
}

// liveHeapPerAtom forces a collection and returns the live heap divided
// by the atom count, keeping the run's objects reachable until measured.
func liveHeapPerAtom(keep any, atoms int) float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	runtime.KeepAlive(keep)
	return float64(st.HeapAlloc) / float64(atoms)
}

// compareResults checks got against want element-wise within
// relTol*(1+|want|) over energy, per-atom energies, forces and virial,
// returning the number of elements outside and the worst excess ratio.
func compareResults(got, want *core.Result, relTol float64) (bad int, worst float64) {
	check := func(g, w float64) {
		lim := relTol * (1 + math.Abs(w))
		d := math.Abs(g - w)
		if !(d <= lim) {
			bad++
		}
		if r := d / lim; r > worst || math.IsNaN(r) {
			worst = r
		}
	}
	check(got.Energy, want.Energy)
	for i := range want.AtomEnergy {
		check(got.AtomEnergy[i], want.AtomEnergy[i])
	}
	for i := range want.Force {
		check(got.Force[i], want.Force[i])
	}
	for i := range want.Virial {
		check(got.Virial[i], want.Virial[i])
	}
	return bad, worst
}

// runMD runs an MD workload: set up setupReps times, check the first
// frame against the oracle plan, run the timed loop, and with tracing
// split the budget between an untraced and a traced loop and probe the
// layers on the final frame.
func runMD(w mdWorkload, rc *runCtx) (*outcome, error) {
	oc := newOutcome()
	var run *mdRun
	var setups []float64
	for range setupReps {
		run = nil
		runtime.GC()
		t := time.Now()
		r, err := w.setup(rc.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		run = r
	}
	oc.values["setup_s"] = median(setups)
	oc.samples["setup_s"] = setups
	atoms := run.sys.N()
	spec := w.spec()

	// Gate: the first frame against the oracle plan.
	f0, err := run.frame(spec, w.workers)
	if err != nil {
		return nil, err
	}
	// The oracle runs small chunks on one worker to bound the gate's peak
	// heap (copper's exact double arenas at 256-atom chunks are ~1 GB per
	// worker); chunking regroups atoms without changing the mathematics.
	om := *run.model
	om.Cfg.ChunkSize = 32
	oracle, err := deepmd.Open(&om, deepmd.WithStrategy(w.oracle), deepmd.WithPrecision(deepmd.Double),
		deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(1))
	if err != nil {
		return nil, err
	}
	want, err := oracle.Evaluate(f0.pos, f0.types, f0.nloc, f0.list, f0.box)
	if err != nil {
		return nil, err
	}
	nbad, worst := compareResults(run.sim.Result(), want, w.relTol)
	finite0 := allFinite(run.sim.Result().Force) && allFinite(want.Force)
	oc.gate(fmt.Sprintf("first frame %v/%v vs %v/double within %.3g*(1+|x|)", w.strategy, w.precision, w.oracle, w.relTol),
		nbad == 0 && finite0, fmt.Sprintf("%d elements outside, worst %.3g of tolerance", nbad, worst))
	debug.FreeOSMemory() // return the oracle's arenas before timing

	budget := rc.budget
	if rc.trace {
		budget /= 2
	}
	steps, loop, bad, err := run.stepLoop(budget, nil, spec, w.workers)
	if err != nil {
		return nil, err
	}
	oc.countSteps(len(steps), bad)
	stepsPerS := float64(len(steps)) / loop.Seconds()
	nsPerDay := stepsPerS * w.dt * 1e-3 * 86400
	d := summarize(steps, 99)
	oc.values["throughput_per_s"] = stepsPerS
	oc.values["latency_ms_p50"] = d.P50
	oc.values["mem_bytes_per_atom"] = liveHeapPerAtom(run, atoms)
	oc.samples["step_ms"] = steps
	oc.dists["step_ms"] = d
	oc.info["ns_per_day"] = nsPerDay
	oc.info["s_per_step_per_atom"] = 1 / stepsPerS / float64(atoms)
	oc.info["atoms"] = atoms
	oc.info["steps"] = len(steps)
	rc.logf("%s: %d atoms, %d steps in %.2f s: %.4g ns/day, %.4g s/step/atom, step p50 %.2f ms, p%.1f %.2f ms (n=%d, %d beyond)",
		w.name, atoms, len(steps), loop.Seconds(), nsPerDay, 1/stepsPerS/float64(atoms), d.P50, d.TailPct, d.Tail, d.N, d.Beyond)

	if !rc.trace {
		return oc, nil
	}
	tr := rc.tracer
	tsteps, tloop, tbad, err := run.stepLoop(budget, tr, spec, w.workers)
	if err != nil {
		return nil, err
	}
	oc.countSteps(len(tsteps), tbad)
	tracedNsPerDay := float64(len(tsteps)) / tloop.Seconds() * w.dt * 1e-3 * 86400
	spans := tr.Spans()
	f, err := run.frame(spec, w.workers)
	if err != nil {
		return nil, err
	}
	return oc, w.layerMetrics(oc, run, f, spans, nsPerDay, tracedNsPerDay, rc)
}

// layerMetrics derives the per-layer metrics of a traced MD run from its
// spans and from layer probes on the final frame f.
func (w mdWorkload) layerMetrics(oc *outcome, run *mdRun, f frame, spans []Span, nsPerDay, tracedNsPerDay float64, rc *runCtx) error {
	v := zeroLayers()
	spec := w.spec()
	var err error
	stepMs := durations(spans, "md.Step")
	computeMs := durations(spans, "core.Compute")
	buildMs := durations(spans, "neighbor.Build")
	// Step self time from steps without a rebuild (their only child is
	// the force call); the rebuild's cost is the replayed build.
	var selfMs []float64
	selfs := selfTimes(spans, "md.Step")
	rebuildStep := make(map[int]bool)
	for _, s := range spans {
		if s.Name == "neighbor.Build" {
			// The replay directly follows its step: the step span with the
			// latest end before the replay's start.
			rebuildStep[lastStepBefore(spans, s.Start)] = true
		}
	}
	k := 0
	for _, s := range spans {
		if s.Name != "md.Step" {
			continue
		}
		if !rebuildStep[s.ID] {
			selfMs = append(selfMs, ms(selfs[k]))
		}
		k++
	}
	nSteps := float64(len(stepMs))
	stepMean, computeMean, selfMean := mean(stepMs), mean(computeMs), mean(selfMs)
	buildMean := mean(buildMs)
	if len(buildMs) == 0 {
		// No rebuild fell in the traced loop: time the build on the
		// final configuration instead (it is amortized over 0 builds).
		if buildMean, err = probeBuild(spec, f, w.workers); err != nil {
			return err
		}
	}
	amortBuild := buildMean * float64(len(buildMs)) / nSteps
	v["md.step_self_ms"] = selfMean
	v["md.accounted_share"] = (selfMean + computeMean + amortBuild) / stepMean
	v["neighbor.build_ms"] = buildMean
	v["neighbor.builds"] = float64(len(buildMs))
	v["core.compute_ms"] = computeMean
	v["core.compute_share"] = sum(computeMs) / sum(stepMs)
	compressed := w.strategy == deepmd.Compressed
	v["core.gflops"] = flopsPerStep(run.model.Cfg, f.types, f.nloc, compressed) / (computeMean * 1e-3) / 1e9
	v["trace.ns_per_day_delta"] = nsPerDay - tracedNsPerDay

	probe := probeInto[float64]
	if w.precision == deepmd.Mixed {
		probe = probeInto[float32]
	}
	if err := probe(v, run.model, f, compressed, 3, rc.seed); err != nil {
		return err
	}
	oc.layers = v
	rc.logf("%s traced: %d steps, step mean %.2f ms = self %.3f + compute %.2f + build %.2f x %d/%d (accounted %.3f); untraced %.4g vs traced %.4g ns/day",
		w.name, len(stepMs), stepMean, selfMean, computeMean, buildMean, len(buildMs), len(stepMs), v["md.accounted_share"], nsPerDay, tracedNsPerDay)
	return nil
}

// probeBuild returns the fastest of three neighbor-list builds of f.
func probeBuild(spec neighbor.Spec, f frame, workers int) (float64, error) {
	best := math.Inf(1)
	for range 3 {
		t := time.Now()
		if _, err := neighbor.Build(spec, f.pos, f.types, f.nloc, f.box, workers); err != nil {
			return 0, err
		}
		best = math.Min(best, ms(time.Since(t)))
	}
	return best, nil
}

// lastStepBefore returns the ID of the md.Step span that ended last at or
// before t.
func lastStepBefore(spans []Span, t time.Duration) int {
	id, end := 0, time.Duration(-1)
	for _, s := range spans {
		if s.Name == "md.Step" && s.End <= t && s.End > end {
			id, end = s.ID, s.End
		}
	}
	return id
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
