package main

import (
	"math/rand"
	"time"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
)

// frame is one configuration a potential is evaluated on.
type frame struct {
	pos   []float64
	types []int
	nloc  int
	list  *neighbor.List
	box   *neighbor.Box
}

// layerTimes are the single-thread times of one whole-frame pass through
// each layer's public entry points, taken in the order and on the shapes
// the evaluator's chunk pipeline uses (core/evaluator.go evalChunkBatched).
type layerTimes struct {
	env, prod, embed, fit, contract, lookup time.Duration
	tableBytes                              int
}

// probeLayers times every layer of one frame evaluation, reps times,
// keeping each layer's fastest pass (the passes are identical work, so
// the minimum is the least-disturbed one). GEMMs run serial, as they do
// inside a chunk-parallel evaluation.
func probeLayers[T tensor.Float](m *core.Model, f frame, compressed bool, reps int, seed int64) (layerTimes, error) {
	cfg := m.Cfg
	nt := cfg.NumTypes()
	stride, mw, ax, dim := cfg.Stride(), cfg.M(), cfg.MAxis, cfg.DescriptorDim()
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 256
	}
	invN := T(1.0 / float64(stride))
	opts := tensor.Opts{Workers: 1}

	embed := make([][]*nn.Net[T], nt)
	fitNets := make([]*nn.Net[T], nt)
	tables := make([][]*compress.Table[T], nt)
	var lt layerTimes
	for ci := 0; ci < nt; ci++ {
		embed[ci] = make([]*nn.Net[T], nt)
		tables[ci] = make([]*compress.Table[T], nt)
		for tj := 0; tj < nt; tj++ {
			embed[ci][tj] = netAs[T](m.Embed[ci][tj])
			if compressed {
				tables[ci][tj] = compress.Convert[T](m.Compressed[ci][tj])
				lt.tableBytes += tables[ci][tj].Bytes()
			}
		}
		fitNets[ci] = netAs[T](m.Fit[ci])
	}

	// Chunk jobs: same-type atoms in chunks of cfg.ChunkSize.
	byType := make([][]int, nt)
	for i := 0; i < f.nloc; i++ {
		byType[f.types[i]] = append(byType[f.types[i]], i)
	}
	type job struct {
		ci    int
		atoms []int
	}
	var jobs []job
	for ci, atoms := range byType {
		for lo := 0; lo < len(atoms); lo += chunk {
			jobs = append(jobs, job{ci, atoms[lo:min(lo+chunk, len(atoms))]})
		}
	}

	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	var sc descriptor.Scratch
	ar := tensor.NewArena[T](1 << 14)
	rng := rand.New(rand.NewSource(seed))
	nd64 := make([]float64, f.nloc*stride*4)
	for i := range nd64 {
		nd64[i] = rng.NormFloat64() * 1e-3
	}
	force := make([]float64, len(f.pos))
	var trs []*nn.Trace[T]
	for range nt {
		trs = append(trs, new(nn.Trace[T]))
	}
	var fitTr nn.Trace[T]

	// Pass 0 sizes the arena (like the evaluator's growArenas); passes
	// 1..reps are timed.
	best := layerTimes{tableBytes: lt.tableBytes}
	for pass := 0; pass <= reps; pass++ {
		var cur layerTimes
		t := time.Now()
		env, err := sc.Environment(nil, dcfg, f.pos, f.types, f.list, f.box)
		cur.env = time.Since(t)
		if err != nil {
			return layerTimes{}, err
		}
		rT := descriptor.ConvertR[T](nil, env, nil)
		fmtd := env.Fmt
		for _, j := range jobs {
			nA := len(j.atoms)
			secS := make([]tensor.Matrix[T], nt)
			secR := make([][]T, nt)
			secG := make([][]T, nt)
			for tj := 0; tj < nt; tj++ {
				sel, off := cfg.Sel[tj], fmtd.SelOff[tj]
				secS[tj] = ar.TakeMatrixUninit(nA*sel, 1)
				secR[tj] = ar.TakeUninit(nA * sel * 4)
				for a, atom := range j.atoms {
					base := (atom*stride + off) * 4
					copy(secR[tj][a*sel*4:(a+1)*sel*4], rT[base:base+sel*4])
					for k := 0; k < sel; k++ {
						secS[tj].Data[a*sel+k] = rT[base+k*4]
					}
				}
			}
			for tj := 0; tj < nt; tj++ {
				if compressed {
					sel := cfg.Sel[tj]
					g := ar.TakeUninit(nA * sel * mw)
					dg := ar.TakeUninit(nA * sel * mw)
					t = time.Now()
					tables[j.ci][tj].EvalBatch(nil, secS[tj].Data, g, dg)
					cur.lookup += time.Since(t)
					secG[tj] = g
					continue
				}
				t = time.Now()
				secG[tj] = embed[j.ci][tj].ForwardInto(trs[tj], nil, opts, ar, secS[tj], true).Out().Data
				cur.embed += time.Since(t)
			}

			tis := ar.TakeUninit(nA * mw * 4)
			dChunk := ar.TakeMatrixUninit(nA, dim)
			t = time.Now()
			for tj := 0; tj < nt; tj++ {
				beta := T(1)
				if tj == 0 {
					beta = 0
				}
				sel := cfg.Sel[tj]
				tensor.GemmBatchTNOpt(opts, nil, nA, sel, mw, 4, invN, secG[tj], sel*mw, secR[tj], sel*4, beta, tis, mw*4)
			}
			tensor.GemmBatchNTOpt(opts, nil, nA, mw, 4, ax, 1, tis, mw*4, tis, mw*4, 0, dChunk.Data, dim)
			cur.contract += time.Since(t)

			ones := ar.TakeMatrixUninit(nA, 1)
			for i := range ones.Data {
				ones.Data[i] = 1
			}
			t = time.Now()
			tr := fitNets[j.ci].ForwardInto(&fitTr, nil, opts, ar, dChunk, true)
			dD := fitNets[j.ci].Backward(nil, opts, ar, tr, ones, nil)
			cur.fit += time.Since(t)

			dT := ar.TakeUninit(nA * mw * 4)
			dTsub := ar.TakeUninit(nA * ax * 4)
			t = time.Now()
			tensor.GemmBatchOpt(opts, nil, nA, mw, ax, 4, 1, dD.Data, dim, tis, mw*4, 0, dT, mw*4)
			tensor.GemmBatchTNOpt(opts, nil, nA, mw, ax, 4, 1, dD.Data, dim, tis, mw*4, 0, dTsub, ax*4)
			cur.contract += time.Since(t)
			for tj := 0; tj < nt; tj++ {
				sel := cfg.Sel[tj]
				dG := ar.TakeMatrixUninit(nA*sel, mw)
				ndSec := ar.TakeUninit(nA * sel * 4)
				t = time.Now()
				tensor.GemmBatchNTOpt(opts, nil, nA, sel, 4, mw, invN, secR[tj], sel*4, dT, mw*4, 0, dG.Data, sel*mw)
				tensor.GemmBatchOpt(opts, nil, nA, sel, mw, 4, invN, secG[tj], sel*mw, dT, mw*4, 0, ndSec, sel*4)
				cur.contract += time.Since(t)
				if !compressed {
					t = time.Now()
					embed[j.ci][tj].Backward(nil, opts, ar, trs[tj], dG, nil)
					cur.embed += time.Since(t)
				}
			}
			ar.Reset()
		}
		clear(force)
		t = time.Now()
		descriptor.ProdForce(nil, nd64, env, force)
		descriptor.ProdVirial(nil, nd64, env)
		cur.prod = time.Since(t)

		if pass == 0 {
			ar = tensor.NewArena[T](ar.MaxPeak())
			continue
		}
		best.env = minPositive(best.env, cur.env)
		best.prod = minPositive(best.prod, cur.prod)
		best.embed = minPositive(best.embed, cur.embed)
		best.fit = minPositive(best.fit, cur.fit)
		best.contract = minPositive(best.contract, cur.contract)
		best.lookup = minPositive(best.lookup, cur.lookup)
	}
	return best, nil
}

// set writes the probed layer times (ms) and table size into v.
func (lt layerTimes) set(v map[string]float64) {
	v["descriptor.env_ms"] = ms(lt.env)
	v["descriptor.prod_ms"] = ms(lt.prod)
	v["nn.embed_ms"] = ms(lt.embed)
	v["nn.fit_ms"] = ms(lt.fit)
	v["tensor.contract_ms"] = ms(lt.contract)
	v["compress.lookup_ms"] = ms(lt.lookup)
	v["compress.table_bytes"] = float64(lt.tableBytes)
}

// minPositive keeps the smaller of two durations, treating an unset
// (zero) best as no value yet.
func minPositive(best, d time.Duration) time.Duration {
	if best == 0 || d < best {
		return d
	}
	return best
}

// netAs returns the network in precision T, converting from the float64
// master weights when T is float32.
func netAs[T tensor.Float](n *nn.Net[float64]) *nn.Net[T] {
	if same, ok := any(n).(*nn.Net[T]); ok {
		return same
	}
	return nn.ConvertNet[T](n)
}

// evaluatorProbe times whole-frame Compute calls on raw evaluators with 1
// and 2 workers (median of reps each, after a warm-up call) and reports
// the 2-worker evaluator's arena footprint.
type evaluatorProbe struct {
	t1, t2     time.Duration
	arenaBytes int
}

func probeEvaluator[T tensor.Float](m *core.Model, f frame, compressed bool, reps int) (evaluatorProbe, error) {
	var p evaluatorProbe
	for _, workers := range []int{1, 2} {
		mv := *m
		mv.Cfg.Workers = workers
		ev := core.NewEvaluator[T](&mv)
		if compressed {
			if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
				return p, err
			}
		}
		var out core.Result
		if err := ev.Compute(f.pos, f.types, f.nloc, f.list, f.box, &out); err != nil {
			return p, err
		}
		var ts []float64
		for range reps {
			t := time.Now()
			if err := ev.Compute(f.pos, f.types, f.nloc, f.list, f.box, &out); err != nil {
				return p, err
			}
			ts = append(ts, float64(time.Since(t)))
		}
		d := time.Duration(median(ts))
		if workers == 1 {
			p.t1 = d
		} else {
			p.t2 = d
			p.arenaBytes = ev.ArenaBytes()
		}
	}
	return p, nil
}

// probeInto runs the layer and evaluator probes on f, reps timed passes
// each, and writes their metrics into v.
func probeInto[T tensor.Float](v map[string]float64, m *core.Model, f frame, compressed bool, reps int, seed int64) error {
	lt, err := probeLayers[T](m, f, compressed, reps, seed)
	if err != nil {
		return err
	}
	lt.set(v)
	ep, err := probeEvaluator[T](m, f, compressed, reps)
	if err != nil {
		return err
	}
	v["core.parallel_eff"] = float64(ep.t1) / (2 * float64(ep.t2))
	v["core.arena_bytes"] = float64(ep.arenaBytes)
	return nil
}

// flopsPerStep is the analytic FLOP count of one whole-frame evaluation
// (core.Config.FLOPsPerAtomStep, with the embedding charge swapped for the
// table's when compressed).
func flopsPerStep(cfg core.Config, types []int, nloc int, compressed bool) float64 {
	frac := make([]float64, cfg.NumTypes())
	for _, t := range types[:nloc] {
		frac[t] += 1 / float64(nloc)
	}
	per := cfg.FLOPsPerAtomStep(frac)
	if compressed {
		per += cfg.CompressedEmbedFLOPsPerAtomStep() - cfg.EmbedFLOPsPerAtomStep()
	}
	return per * float64(nloc)
}
