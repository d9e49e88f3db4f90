package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/domain"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"

	deepmd "deepmd-go"
)

// tinyWater is the dpmd/dpserve default water model: rcut 4, sel 12/24,
// embedding 4/8/16, fitting 24^3 (cmd/dpserve buildModel).
func tinyWater() core.Config {
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	return cfg
}

const (
	tcpRanks = 2
	tcpDt    = 0.0005 // ps
)

// tcp2Opts are the domain options of the water-tcp2 run: a 2x1x1 grid at
// the paper cadence with the non-blocking thermo reduction.
func tcp2Opts(cfg core.Config, steps int) domain.Options {
	return domain.Options{
		Ranks: tcpRanks, Grid: [3]int{2, 1, 1}, Dt: tcpDt, Steps: steps,
		Spec:         neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel},
		RebuildEvery: rebuildEvery, ThermoEvery: thermoEvery, UseIallreduce: true, Workers: 1,
	}
}

// tcp2System is the 8x4x4-molecule water box (384 atoms) from the seed.
func tcp2System(seed int64) *md.System {
	sys := deepmd.BuildWater(8, 4, 4, seed)
	sys.InitVelocities(tempK, seed+1)
	return sys
}

// rankPot wraps one rank's potential. It stamps the end of every force
// call (call k ends step k; call 0 ends set-up) and, when traced, records
// a span per call and keeps a copy of the configuration of every call
// that follows a rebuild, so the rebuild can be replayed and timed after
// the run.
type rankPot struct {
	inner md.Potential
	ends  []time.Time
	tr    *Tracer
	root  int       // this rank's domain.RunOn span, parent of its force calls
	durs  []float64 // force-call wall times in ms (traced runs only)
	// heapAt > 0 measures the live heap (after a forced GC) at the end of
	// force call heapAt, mid-run with both ranks' state alive.
	heapAt int
	heap   uint64
	// captured rebuild configurations (traced runs only)
	rebuilds []frame
	lastList *neighbor.List
	last     frame // configuration of the latest call (traced runs only)
}

func (p *rankPot) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	var id int
	var t time.Time
	if p.tr != nil {
		id = p.tr.Begin("core.Compute", p.root)
		t = time.Now()
	}
	err := p.inner.Compute(pos, types, nloc, list, box, out)
	p.ends = append(p.ends, time.Now())
	if p.heapAt > 0 && len(p.ends) == p.heapAt {
		runtime.GC()
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		p.heap = st.HeapAlloc
	}
	if p.tr != nil {
		p.tr.End(id)
		p.durs = append(p.durs, ms(p.ends[len(p.ends)-1].Sub(t)))
		p.last = frame{pos: pos, types: types, nloc: nloc, list: list}
		if list != p.lastList {
			p.rebuilds = append(p.rebuilds, frame{
				pos: append([]float64(nil), pos...), types: append([]int(nil), types...), nloc: nloc, list: list,
			})
			p.lastList = list
		}
	}
	return err
}

// tcpRun is the outcome of one 2-rank TCP run.
type tcpRun struct {
	stats *domain.Stats // rank 0's
	pots  []*rankPot
	start time.Time
	model *core.Model
}

// setupTime is from the start of set-up to the end of the slowest rank's
// first force call.
func (r *tcpRun) setupTime() time.Duration {
	var last time.Time
	for _, p := range r.pots {
		if p.ends[0].After(last) {
			last = p.ends[0]
		}
	}
	return last.Sub(r.start)
}

// stepTimes returns each step's wall time (ms), set by the slowest rank:
// step k ends when the last rank finishes its k-th force call.
func (r *tcpRun) stepTimes() []float64 {
	n := len(r.pots[0].ends)
	slowest := make([]time.Time, n)
	for _, p := range r.pots {
		for k, t := range p.ends {
			if t.After(slowest[k]) {
				slowest[k] = t
			}
		}
	}
	out := make([]float64, n-1)
	for k := 1; k < n; k++ {
		out[k-1] = ms(slowest[k].Sub(slowest[k-1]))
	}
	return out
}

// runTCPOnce sets up and runs the workload over a loopback TCP mesh: the
// model (fixed weights), one engine per rank (1 worker each), the
// rendezvous and mesh, then domain.RunOn on both ranks for the given
// number of steps.
func runTCPOnce(seed int64, steps int, tr *Tracer, heapAt int) (*tcpRun, error) {
	run := &tcpRun{start: time.Now()}
	cfg := tinyWater()
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	run.model = model
	for range tcpRanks {
		eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(1))
		if err != nil {
			return nil, err
		}
		run.pots = append(run.pots, &rankPot{inner: eng, ends: make([]time.Time, 0, steps+1), tr: tr})
	}
	run.pots[0].heapAt = heapAt
	sys := tcp2System(seed)
	worlds, err := dialMesh(tcpRanks)
	if err != nil {
		return nil, err
	}
	opt := tcp2Opts(cfg, steps)
	errs := make([]error, tcpRanks)
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: %v", r, p)
				}
				if errs[r] != nil {
					// Unblock the other rank.
					for _, w := range worlds {
						w.Abort()
					}
				}
			}()
			run.pots[r].root = tr.Begin("domain.RunOn", 0)
			st, err := domain.RunOn(w.Comm(), sys, run.pots[r], opt)
			tr.End(run.pots[r].root)
			errs[r] = err
			if r == 0 {
				run.stats = st
			}
		}()
	}
	wg.Wait()
	closeErrs := make([]error, tcpRanks)
	for r, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closeErrs[r] = w.Close()
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, closeErrs...)...); err != nil {
		return nil, err
	}
	return run, nil
}

// dialMesh starts a rendezvous on a loopback port and connects ranks
// ranks to it and to each other.
func dialMesh(ranks int) ([]*mpi.TCPWorld, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rv := make(chan error, 1)
	go func() { rv <- mpi.ServeRendezvous(ln, ranks) }()
	worlds := make([]*mpi.TCPWorld, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worlds[r], errs[r] = mpi.DialTCP(mpi.TCPConfig{
				Rank: r, Size: ranks, Coordinator: ln.Addr().String(), Listen: "127.0.0.1:0", DialTimeout: 20 * time.Second,
			})
		}()
	}
	wg.Wait()
	ln.Close()
	rvErr := <-rv
	if err := errors.Join(errors.Join(errs...), rvErr); err != nil {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
		return nil, fmt.Errorf("tcp mesh: %w", err)
	}
	return worlds, nil
}

// inprocReference runs the same steps on the in-process transport with
// fresh per-rank engines.
func inprocReference(model *core.Model, seed int64, steps int) (*domain.Stats, error) {
	var openErr atomic.Pointer[error]
	newPot := func() md.Potential {
		eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(1))
		if err != nil {
			openErr.Store(&err)
			return nil
		}
		return eng
	}
	st, err := domain.Run(tcp2System(seed), newPot, tcp2Opts(model.Cfg, steps))
	if e := openErr.Load(); e != nil {
		return nil, *e
	}
	return st, err
}

// samePhysics compares the thermo logs and per-rank energies bit for bit.
func samePhysics(a, b *domain.Stats) (bool, string) {
	if len(a.Thermo) != len(b.Thermo) {
		return false, fmt.Sprintf("%d vs %d thermo samples", len(a.Thermo), len(b.Thermo))
	}
	for i := range a.Thermo {
		if a.Thermo[i] != b.Thermo[i] {
			return false, fmt.Sprintf("thermo sample %d differs: %+v vs %+v", i, a.Thermo[i], b.Thermo[i])
		}
	}
	for r := range a.PEPerRank {
		if math.Float64bits(a.PEPerRank[r]) != math.Float64bits(b.PEPerRank[r]) ||
			math.Float64bits(a.KEPerRank[r]) != math.Float64bits(b.KEPerRank[r]) {
			return false, fmt.Sprintf("rank %d PE/KE %v/%v vs %v/%v", r, a.PEPerRank[r], a.KEPerRank[r], b.PEPerRank[r], b.KEPerRank[r])
		}
	}
	return true, fmt.Sprintf("%d thermo samples and %d ranks' PE/KE bit-identical", len(a.Thermo), len(a.PEPerRank))
}

// calibrationSteps is the length of the first set-up run, which also
// measures the step time the timed run is sized from.
const calibrationSteps = 60

// tcpSetupReps is how many times water-tcp2 sets up; its set-up is short,
// so more repetitions steady the median.
const tcpSetupReps = 9

// runTCP2 is the water-tcp2 workload. The first set-up also runs a short
// calibration that sizes the timed run and measures the heap mid-run. The
// in-process reference of the timed run's steps takes as long again.
func runTCP2(rc *runCtx) (*outcome, error) {
	oc := newOutcome()
	var setups []float64
	var perStep time.Duration
	var heap uint64
	for rep := range tcpSetupReps - 1 {
		steps, heapAt := 0, 0
		if rep == 0 {
			steps, heapAt = calibrationSteps, calibrationSteps-5
		}
		r, err := runTCPOnce(rc.seed, steps, nil, heapAt)
		if err != nil {
			return nil, fmt.Errorf("water-tcp2 setup: %w", err)
		}
		setups = append(setups, r.setupTime().Seconds())
		if steps > 0 {
			perStep = time.Duration(median(r.stepTimes()) * float64(time.Millisecond))
			heap = r.pots[0].heap
		}
	}
	budget := rc.budget
	if rc.trace {
		budget /= 2
	}
	steps := max(int(budget/perStep), 2*rebuildEvery)
	run, err := runTCPOnce(rc.seed, steps, nil, 0)
	if err != nil {
		return nil, err
	}
	setups = append(setups, run.setupTime().Seconds())
	oc.values["setup_s"] = median(setups)
	oc.samples["setup_s"] = setups

	st := run.stepTimes()
	loop := sum(st) / 1e3
	oc.countSteps(len(st), nonFiniteRanks(run.stats))
	ref, err := inprocReference(run.model, rc.seed, steps)
	if err != nil {
		return nil, err
	}
	ok, detail := samePhysics(run.stats, ref)
	oc.gate(fmt.Sprintf("tcp thermo log and per-rank PE/KE vs in-process transport over %d steps", steps), ok, detail)

	stepsPerS := float64(len(st)) / loop
	nsPerDay := stepsPerS * tcpDt * 1e-3 * 86400
	d := summarize(st, 99)
	atoms := 0
	for _, n := range run.stats.AtomsPerRank {
		atoms += n
	}
	oc.values["throughput_per_s"] = stepsPerS
	oc.values["latency_ms_p50"] = d.P50
	oc.values["mem_bytes_per_atom"] = float64(heap) / float64(atoms)
	oc.samples["step_ms"] = st
	oc.dists["step_ms"] = d
	oc.info["ns_per_day"] = nsPerDay
	oc.info["atoms"] = atoms
	oc.info["steps"] = len(st)
	oc.info["messages"] = run.stats.Messages
	oc.info["bytes"] = run.stats.Bytes
	rc.logf("water-tcp2: %d atoms on %d ranks, %d steps in %.2f s: %.4g ns/day, step p50 %.3f ms, p%.1f %.3f ms (n=%d, %d beyond), setup median %.3f s of %d",
		atoms, tcpRanks, len(st), loop, nsPerDay, d.P50, d.TailPct, d.Tail, d.N, d.Beyond, median(setups), len(setups))
	if !rc.trace {
		return oc, nil
	}

	truns, err := runTCPOnce(rc.seed, steps, rc.tracer, 0)
	if err != nil {
		return nil, err
	}
	tst := truns.stepTimes()
	oc.countSteps(len(tst), nonFiniteRanks(truns.stats))
	tracedNsPerDay := float64(len(tst)) / (sum(tst) / 1e3) * tcpDt * 1e-3 * 86400
	return oc, tcpLayerMetrics(oc, truns, tst, nsPerDay, tracedNsPerDay, rc)
}

// nonFiniteRanks counts ranks whose final energies are not finite.
func nonFiniteRanks(st *domain.Stats) int {
	bad := 0
	for r := range st.PEPerRank {
		if !allFinite([]float64{st.PEPerRank[r], st.KEPerRank[r]}) {
			bad++
		}
	}
	return bad
}

// tcpLayerMetrics derives the traced run's per-layer metrics.
func tcpLayerMetrics(oc *outcome, run *tcpRun, steps []float64, nsPerDay, tracedNsPerDay float64, rc *runCtx) error {
	v := zeroLayers()
	st := run.stats
	n := float64(len(steps))
	stepMean := mean(steps)

	// Per-rank compute and self time per step: the interval between
	// consecutive force-call ends minus the force call, on steps without
	// a rebuild.
	var rankCompute []float64
	var computeAll, selfMs []float64
	for _, p := range run.pots {
		comp := p.durs
		rankCompute = append(rankCompute, sum(comp[1:]))
		computeAll = append(computeAll, comp[1:]...)
		for k := 1; k < len(p.ends); k++ {
			if k%rebuildEvery == 0 {
				continue
			}
			selfMs = append(selfMs, ms(p.ends[k].Sub(p.ends[k-1]))-comp[k])
		}
	}
	// Replay every rebuild after the run (call 0's list is set-up).
	var buildMs []float64
	for _, p := range run.pots {
		for _, f := range p.rebuilds[1:] {
			t := time.Now()
			if _, err := neighbor.Build(tcp2Opts(run.model.Cfg, 0).Spec, f.pos, f.types, f.nloc, nil, 1); err != nil {
				return err
			}
			d := time.Since(t)
			rc.tracer.Add("neighbor.Build", 0, t, d)
			buildMs = append(buildMs, ms(d))
		}
	}
	computeMean, selfMean, buildMean := mean(computeAll), mean(selfMs), mean(buildMs)
	amortBuild := buildMean * float64(len(buildMs)) / float64(len(run.pots)) / n
	v["md.step_self_ms"] = selfMean
	v["md.accounted_share"] = (selfMean + computeMean + amortBuild) / stepMean
	v["neighbor.build_ms"] = buildMean
	v["neighbor.builds"] = float64(len(buildMs))
	v["core.compute_ms"] = computeMean
	v["core.compute_share"] = sum(computeAll) / (float64(len(run.pots)) * sum(steps))
	v["mpi.msgs_per_step"] = float64(st.Messages) / n
	v["mpi.bytes_per_step"] = float64(st.Bytes) / n
	var overlap, ghosts float64
	for r := range st.OverlapPerRank {
		overlap += st.OverlapPerRank[r]
		ghosts += float64(st.GhostsPerRank[r])
	}
	v["domain.halo_wait_share"] = 1 - overlap/float64(len(st.OverlapPerRank))
	v["domain.ghosts_per_rank"] = ghosts / float64(len(st.GhostsPerRank))
	v["domain.rank_compute_ms"] = computeMean
	v["domain.imbalance"] = slices.Max(rankCompute) / mean(rankCompute)
	v["trace.ns_per_day_delta"] = nsPerDay - tracedNsPerDay

	// Layer probes on rank 0's final configuration.
	f := run.pots[0].last
	v["core.gflops"] = flopsPerStep(run.model.Cfg, f.types, f.nloc, false) / (computeMean * 1e-3) / 1e9
	if err := probeInto[float64](v, run.model, f, false, 7, rc.seed); err != nil {
		return err
	}
	oc.layers = v
	rc.logf("water-tcp2 traced: %d steps, step mean %.3f ms = self %.3f + compute %.3f + build %.3f x %d/%d/%d (accounted %.3f); %.1f msgs, %.0f B per step; halo wait share %.3f; untraced %.4g vs traced %.4g ns/day",
		len(steps), stepMean, selfMean, computeMean, buildMean, len(buildMs), len(run.pots), len(steps), v["md.accounted_share"],
		v["mpi.msgs_per_step"], v["mpi.bytes_per_step"], v["domain.halo_wait_share"], nsPerDay, tracedNsPerDay)
	return nil
}
