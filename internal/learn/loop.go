package learn

import (
	"fmt"
	"math/rand"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/train"
)

// Seed-stream offsets: every random decision of the loop draws from its
// own rand.Source seeded Config.Seed + offset (+ per-replica / per-round
// terms), so adding a stream never perturbs the others and a fixed seed
// reproduces the whole run bit-for-bit.
const (
	seedInitData  = 11          // initial-dataset perturbations
	seedValData   = 23          // validation-set perturbations
	seedWeights   = 101         // replica weight inits (x replica)
	seedBootstrap = 1009        // bootstrap resamples (x replica, x round)
	seedShuffle   = 2003        // batch shuffles (x replica, x round)
	seedVelocity  = 40009       // exploration velocity inits (x replica, x traj, x round)
	roundStride   = 1_000_000_0 // separates per-round streams
)

// Loop is the active-learning driver state: the growing labeled dataset,
// the replica ensemble, and the harvest bookkeeping. Construct with
// NewLoop, then either Run the whole schedule or drive RunRound manually.
type Loop struct {
	cfg     Config
	base    *lattice.System
	labeler Labeler

	data    []train.Frame // the growing master dataset
	val     []train.Frame // fixed held-out validation set
	models  []*core.Model
	steps   []int // cumulative Adam steps per replica
	seen    map[FrameKey]struct{}
	report  *Report
	sysName string
}

// NewLoop validates the configuration, generates and labels the initial
// and validation datasets, builds the replica models (distinct weight
// seeds, shared energy bias fit from the initial data) and trains them on
// bootstrap resamples of the initial dataset — everything up to, but not
// including, round 0's exploration.
func NewLoop(cfg Config, base *lattice.System, labeler Labeler) (*Loop, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("learn: empty base system")
	}
	if labeler == nil {
		return nil, fmt.Errorf("learn: nil labeler")
	}
	l := &Loop{
		cfg:     cfg,
		base:    base,
		labeler: labeler,
		seen:    make(map[FrameKey]struct{}),
		steps:   make([]int, cfg.Replicas),
	}

	var err error
	l.data, err = l.genFrames(cfg.InitFrames, cfg.InitPerturbLo, cfg.InitPerturbHi, cfg.Seed+seedInitData)
	if err != nil {
		return nil, fmt.Errorf("learn: initial dataset: %w", err)
	}
	l.val, err = l.genFrames(cfg.ValFrames, cfg.PerturbLo, cfg.PerturbHi, cfg.Seed+seedValData)
	if err != nil {
		return nil, fmt.Errorf("learn: validation dataset: %w", err)
	}

	// One shared energy bias from the initial data: replicas differ in
	// weights and data views, not in the trivial composition baseline.
	bias := train.FitEnergyBias(l.data, cfg.Model.NumTypes())
	l.models = make([]*core.Model, cfg.Replicas)
	for r := range l.models {
		mc := cfg.Model
		mc.AtomEnerBias = bias
		mc.Seed = cfg.Seed + seedWeights*(int64(r)+1)
		m, err := core.New(mc)
		if err != nil {
			return nil, err
		}
		l.models[r] = m
	}
	if err := l.trainReplicas(0, cfg.InitTrainSteps); err != nil {
		return nil, err
	}

	l.report = &Report{
		Replicas:     cfg.Replicas,
		MaxRounds:    cfg.MaxRounds,
		Seed:         cfg.Seed,
		Lo:           cfg.Lo,
		Hi:           cfg.Hi,
		ConvergeFrac: cfg.ConvergeFrac,
		HistEdges:    histEdges(cfg.Lo, cfg.Hi),
	}
	return l, nil
}

// SetSystemName labels the report (cosmetic).
func (l *Loop) SetSystemName(name string) {
	l.sysName = name
	l.report.System = name
}

// Report returns the convergence report accumulated so far.
func (l *Loop) Report() *Report { return l.report }

// DatasetSize returns the current training-pool size.
func (l *Loop) DatasetSize() int { return len(l.data) }

// Models exposes the replica models (read-only use: serving, inspection).
func (l *Loop) Models() []*core.Model { return l.models }

// genFrames perturbs the base system n times with amplitudes in
// [ampLo, ampHi] and labels each frame with the reference labeler —
// train.GenData's scheme routed through the Labeler seam. The neighbor
// list of every frame is built eagerly so later bootstrap copies share
// one cached list.
func (l *Loop) genFrames(n int, ampLo, ampHi float64, seed int64) ([]train.Frame, error) {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]train.Frame, 0, n)
	for fi := 0; fi < n; fi++ {
		amp := ampLo + (ampHi-ampLo)*rng.Float64()
		pos := make([]float64, len(l.base.Pos))
		copy(pos, l.base.Pos)
		for i := range pos {
			pos[i] += amp * (2*rng.Float64() - 1)
		}
		f, err := l.labelFrame(pos, l.base.Box)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// labelFrame labels one configuration with the reference labeler and
// pre-builds its neighbor list, so every later bootstrap copy of the
// Frame value shares the one cached list.
func (l *Loop) labelFrame(pos []float64, box neighbor.Box) (train.Frame, error) {
	f := train.Frame{Pos: pos, Types: l.base.Types, Box: box}
	if _, err := f.List(l.cfg.spec(), l.cfg.Plan.Workers); err != nil {
		return train.Frame{}, err
	}
	e, force, err := l.labeler.Label(f.Pos, f.Types, &f.Box)
	if err != nil {
		return train.Frame{}, err
	}
	f.Energy = e
	f.Force = force
	return f, nil
}

// trainReplicas trains every replica for steps Adam steps, warm-starting
// from the replica's current weights with the LR schedule resumed.
// Round 0 trains each replica on its own bootstrap resample of the
// initial dataset — data diversity on top of the weight-seed diversity,
// so the starting ensemble genuinely disagrees. Retraining rounds use
// the full grown dataset for every replica (the DP-GEN scheme): as the
// data covers the explored region, replicas can actually converge to
// agreement, which is what the candidate fraction measures. Replicas
// train sequentially (determinism; the training evaluator is serial
// anyway).
func (l *Loop) trainReplicas(round, steps int) error {
	for r, m := range l.models {
		view := l.data
		if round == 0 {
			view = l.bootstrap(l.cfg.Seed + seedBootstrap*(int64(r)+1))
		}
		tr, err := train.NewTrainer(m, train.Config{
			LR:         l.cfg.LR,
			BatchSize:  l.cfg.BatchSize,
			DecayRate:  l.cfg.DecayRate,
			DecaySteps: l.cfg.DecaySteps,
			Seed:       int64(round)*roundStride + l.cfg.Seed + seedShuffle*(int64(r)+1),
			StartStep:  l.steps[r],
			Workers:    l.cfg.Plan.Workers,
		})
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			if _, err := tr.Step(view); err != nil {
				return fmt.Errorf("learn: round %d replica %d training: %w", round, r, err)
			}
		}
		l.steps[r] = tr.CurrentStep()
	}
	return nil
}

// bootstrap returns a bootstrap resample (same size, drawn with
// replacement) of the master dataset. Frame values share position and
// cached-list storage with the master frames — views are cheap.
func (l *Loop) bootstrap(seed int64) []train.Frame {
	rng := rand.New(rand.NewSource(seed))
	view := make([]train.Frame, len(l.data))
	for i := range view {
		view[i] = l.data[rng.Intn(len(l.data))]
	}
	return view
}

// openEngines opens one serving engine per replica from the current
// weights under the configured plan. With the Compressed strategy the
// tables are (re-)tabulated first — retraining invalidates any previous
// tabulation.
func (l *Loop) openEngines() ([]*core.Engine, error) {
	engines := make([]*core.Engine, len(l.models))
	for r, m := range l.models {
		if l.cfg.Plan.Strategy == core.StrategyCompressed {
			if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
				return nil, fmt.Errorf("learn: replica %d tabulation: %w", r, err)
			}
		}
		e, err := core.NewEngine(m, l.cfg.Plan)
		if err != nil {
			return nil, fmt.Errorf("learn: replica %d engine: %w", r, err)
		}
		engines[r] = e
	}
	return engines, nil
}

// explore runs this round's exploration MD — TrajPerReplica trajectories
// per replica, each replica's trajectories driven concurrently over its
// own engine's evaluator pool (md.RunEnsemble) — and returns the captured
// frames in deterministic (replica, traj, snapshot) order.
func (l *Loop) explore(round int, engines []*core.Engine) ([]ScoredFrame, error) {
	cfg := &l.cfg
	var frames []ScoredFrame
	for r, eng := range engines {
		systems := make([]*md.System, cfg.TrajPerReplica)
		for t := range systems {
			sys := &md.System{
				Pos:        append([]float64(nil), l.base.Pos...),
				Types:      l.base.Types,
				MassByType: cfg.Model.Masses,
				Box:        l.base.Box,
				Vel:        make([]float64, 3*l.base.N()),
			}
			sys.InitVelocities(cfg.TempK,
				int64(round)*roundStride+cfg.Seed+seedVelocity*(int64(r)+1)+int64(t))
			systems[t] = sys
		}
		opt := md.Options{
			Dt:           cfg.Dt,
			Spec:         cfg.spec(),
			RebuildEvery: 10,
			ThermoEvery:  cfg.ExploreSteps + 1, // no thermo log needed
			CaptureEvery: cfg.CaptureEvery,
			Thermostat:   &md.Berendsen{TargetK: cfg.TempK, TauPs: cfg.TauPs},
			SafetyCheck:  true,
			Workers:      cfg.Plan.Workers,
		}
		sims, err := md.RunEnsemble(eng, systems, opt, cfg.ExploreSteps, cfg.Plan.MaxConcurrency)
		if err != nil {
			return nil, fmt.Errorf("learn: round %d replica %d exploration: %w", round, r, err)
		}
		for t, sim := range sims {
			for s, snap := range sim.Traj {
				frames = append(frames, ScoredFrame{
					Key: FrameKey{Round: round, Replica: r, Traj: t, Snap: s},
					Pos: snap.Pos,
					Box: snap.Box,
				})
			}
		}
	}
	return frames, nil
}

// RunRound executes one full round: exploration, deviation scoring,
// bucketing, harvest + labeling, the round report, and (when not
// converged) the warm-start retrain. It returns true when the
// convergence criterion fired.
func (l *Loop) RunRound(round int) (bool, error) {
	cfg := &l.cfg
	engines, err := l.openEngines()
	if err != nil {
		return false, err
	}
	frames, err := l.explore(round, engines)
	if err != nil {
		return false, err
	}
	if len(frames) == 0 {
		return false, fmt.Errorf("learn: round %d captured no frames (ExploreSteps %d < CaptureEvery %d?)",
			round, cfg.ExploreSteps, cfg.CaptureEvery)
	}

	// Score: every frame evaluated by every replica over one shared list.
	pots := make([]md.Potential, len(engines))
	for i, e := range engines {
		pots[i] = e
	}
	devs := make([]float64, 0, len(frames))
	var meanDev, maxDev float64
	counts := [3]int{}
	for i := range frames {
		f := &frames[i]
		forces, err := EnsembleForces(pots, cfg.spec(), cfg.Plan.Workers, f.Pos, l.base.Types, &f.Box)
		if err != nil {
			return false, err
		}
		f.Dev = MaxForceDeviation(forces, l.base.N())
		f.Bucket = Classify(f.Dev, cfg.Lo, cfg.Hi)
		counts[f.Bucket]++
		devs = append(devs, f.Dev)
		meanDev += f.Dev / float64(len(frames))
		if f.Dev > maxDev {
			maxDev = f.Dev
		}
	}

	// Validation RMSE with the weights this round explored with
	// (ensemble mean over replicas).
	var eRMSE, fRMSE float64
	for _, e := range engines {
		er, err := train.EnergyRMSEWith(e, cfg.spec(), cfg.Plan.Workers, l.val)
		if err != nil {
			return false, err
		}
		fr, err := train.ForceRMSEWith(e, cfg.spec(), cfg.Plan.Workers, l.val)
		if err != nil {
			return false, err
		}
		eRMSE += er / float64(len(engines))
		fRMSE += fr / float64(len(engines))
	}

	// Harvest: label the most-uncertain candidates, grow the dataset.
	// The dataset only ever grows, and no frame key is ever harvested
	// twice — the seen set turns a violation into a hard error.
	harvest := SelectCandidates(frames, cfg.MaxHarvest)
	datasetBefore := len(l.data)
	for _, f := range harvest {
		if _, dup := l.seen[f.Key]; dup {
			return false, fmt.Errorf("learn: frame %+v harvested twice", f.Key)
		}
		l.seen[f.Key] = struct{}{}
		lf, err := l.labelFrame(f.Pos, f.Box)
		if err != nil {
			return false, fmt.Errorf("learn: labeling %+v: %w", f.Key, err)
		}
		l.data = append(l.data, lf)
	}

	frac := float64(counts[Candidate]+counts[Failed]) / float64(len(frames))
	l.report.Rounds = append(l.report.Rounds, RoundReport{
		Round:         round,
		DatasetSize:   datasetBefore,
		Explored:      len(frames),
		Accurate:      counts[Accurate],
		Candidate:     counts[Candidate],
		Failed:        counts[Failed],
		CandidateFrac: frac,
		MeanDev:       meanDev,
		MaxDev:        maxDev,
		Hist:          histogram(l.report.HistEdges, devs),
		Harvested:     len(harvest),
		EnergyRMSE:    eRMSE,
		ForceRMSE:     fRMSE,
		TrainSteps:    l.steps[0],
	})

	if frac < cfg.ConvergeFrac {
		l.report.Converged = true
		return true, nil
	}
	if err := l.trainReplicas(round+1, cfg.TrainSteps); err != nil {
		return false, err
	}
	return false, nil
}

// Run drives rounds until convergence or the MaxRounds budget and
// returns the convergence report.
func (l *Loop) Run() (*Report, error) {
	for round := 0; round < l.cfg.MaxRounds; round++ {
		converged, err := l.RunRound(round)
		if err != nil {
			return l.report, err
		}
		if converged {
			break
		}
	}
	return l.report, nil
}

// Run is the one-call driver: NewLoop + Run.
func Run(cfg Config, base *lattice.System, labeler Labeler) (*Report, error) {
	l, err := NewLoop(cfg, base, labeler)
	if err != nil {
		return nil, err
	}
	return l.Run()
}
