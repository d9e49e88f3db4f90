package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/serve"
)

// LoadRow is one (leg, concurrency) cell of the serving load experiment:
// aggregate throughput and per-request latency percentiles for `Conc`
// concurrent callers issuing back-to-back evaluate requests.
type LoadRow struct {
	// Leg identifies the serving path: "pool" evaluates per request on
	// the PR 5 evaluator pool, "batch" routes through the internal/serve
	// micro-batcher, "http" drives a running dpserve daemon.
	Leg  string
	Conc int
	// PerOp is aggregate wall time per evaluation (wall / total
	// requests) — inverse throughput.
	PerOp time.Duration
	// P50/P95/P99 are per-request latency percentiles.
	P50, P95, P99 time.Duration
	// Speedup is the aggregate-throughput gain of this row against the
	// pool leg at the same concurrency (1 for pool rows; against the
	// single-caller row for http legs).
	Speedup float64
	// Coalesce is the realized frames-per-batch of the batch leg (1 on
	// the pool leg, 0 when the daemon's counters are not visible).
	Coalesce float64
}

// LoadResult is the `dpbench -exp load` experiment (ISSUE 7): offered
// load vs. throughput/latency of the serving path, contrasting
// per-request pool evaluation (the PR 5 baseline, BENCH_PR5.json) with
// cross-request micro-batching at the same concurrency. Every batch-leg
// response is verified bit-identical to a serial reference evaluation as
// it is measured — coalescing must never change the physics. With a -url,
// the same load is driven over HTTP against a running dpserve daemon
// (whose deterministic built-in model allows the same verification).
type LoadResult struct {
	Atoms int
	URL   string
	Rows  []LoadRow
}

// loadVariants is how many distinct systems the callers cycle through, so
// a coalesced batch mixes different frames (the serving reality) instead
// of identical ones.
const loadVariants = 3

// Load measures serving throughput and latency at 1, 2, 4 and conc
// concurrent callers on the Quick water shape. When url is non-empty the
// load is driven over HTTP against a dpserve daemon at that base URL
// instead of in-process (one leg, no pool contrast).
func Load(sc Scale, conc int, url string) (*LoadResult, error) {
	if conc <= 0 {
		conc = 8
	}
	// Concurrency ladder up to the requested level: 1, 2, 4, ..., conc.
	var concs []int
	for _, c := range []int{1, 2, 4} {
		if c < conc {
			concs = append(concs, c)
		}
	}
	concs = append(concs, conc)
	evalsPerCaller, rounds := 8, 2
	if sc == Full {
		evalsPerCaller = 16
	}

	cfg := waterModelConfig(sc)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	// One frame variant per caller slot, cycled; serial references are
	// the bit-identity oracle for every measured response.
	type variant struct {
		pos   []float64
		types []int
		lb    listAndBox
		ref   core.Result
	}
	maxConc := concs[len(concs)-1]
	engine, err := core.NewEngine(model, core.Plan{Workers: 1, MaxConcurrency: maxConc})
	if err != nil {
		return nil, err
	}
	variants := make([]variant, loadVariants)
	for i := range variants {
		p, t, l, b, err := waterBox(&cfg, waterNX(sc), int64(3+2*i))
		if err != nil {
			return nil, err
		}
		variants[i] = variant{pos: p, types: t, lb: listAndBox{l, b}}
		if err := engine.Compute(p, t, len(t), l, b, &variants[i].ref); err != nil {
			return nil, err
		}
	}
	n := len(variants[0].types)
	res := &LoadResult{Atoms: n, URL: url}

	// drive fans c callers over the variants, each issuing
	// evalsPerCaller requests through eval, and returns the merged
	// per-request latencies plus the aggregate wall time.
	drive := func(c int, eval func(g int, v *variant, ref *core.Result) error) ([]time.Duration, time.Duration, error) {
		lats := make([][]time.Duration, c)
		errs := make([]error, c)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < c; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := &variants[g%loadVariants]
				for k := 0; k < evalsPerCaller; k++ {
					t0 := time.Now()
					if err := eval(g, v, &v.ref); err != nil {
						errs[g] = err
						return
					}
					lats[g] = append(lats[g], time.Since(t0))
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(start)
		var merged []time.Duration
		for g := 0; g < c; g++ {
			if errs[g] != nil {
				return nil, 0, errs[g]
			}
			merged = append(merged, lats[g]...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		return merged, wall, nil
	}
	// cell warms the path once un-measured (arena and batch-slot
	// growth), then keeps the best-wall round against scheduler noise.
	cell := func(leg string, c int, eval func(g int, v *variant, ref *core.Result) error) (LoadRow, error) {
		if _, _, err := drive(c, eval); err != nil {
			return LoadRow{}, err
		}
		var best []time.Duration
		var bestWall time.Duration
		for r := 0; r < rounds; r++ {
			lats, wall, err := drive(c, eval)
			if err != nil {
				return LoadRow{}, err
			}
			if bestWall == 0 || wall < bestWall {
				bestWall, best = wall, lats
			}
		}
		return LoadRow{
			Leg: leg, Conc: c,
			PerOp: bestWall / time.Duration(len(best)),
			P50:   percentile(best, 0.50),
			P95:   percentile(best, 0.95),
			P99:   percentile(best, 0.99),
		}, nil
	}

	if url != "" {
		// HTTP legs against a running daemon. The daemon's built-in tiny
		// water model is deterministic (same config, same seed), so the
		// local references remain the bit-identity oracle.
		client := &http.Client{Timeout: 60 * time.Second}
		bodies := make([][]byte, loadVariants)
		for i, v := range variants {
			b, err := json.Marshal(map[string]any{"pos": v.pos, "types": v.types, "box": v.lb.b.L})
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}
		var base LoadRow
		for _, c := range concs {
			r, err := cell("http", c, func(g int, v *variant, ref *core.Result) error {
				return httpEvaluate(client, url, bodies[g%loadVariants], ref)
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: load: http leg c=%d: %w", c, err)
			}
			if base.PerOp == 0 {
				base = r
			}
			r.Speedup = float64(base.PerOp) / float64(r.PerOp)
			res.Rows = append(res.Rows, r)
		}
		return res, nil
	}

	// Warm the pool once so both legs measure steady state.
	if err := engine.Prewarm(variants[0].pos, variants[0].types, n, variants[0].lb.l, variants[0].lb.b); err != nil {
		return nil, err
	}
	outs := make([]core.Result, maxConc)
	for _, c := range concs {
		// Pool leg: per-request evaluation on the engine's evaluator pool,
		// exactly the PR 5 serving configuration.
		pool, err := cell("pool", c, func(g int, v *variant, ref *core.Result) error {
			out := &outs[g]
			if err := engine.Compute(v.pos, v.types, n, v.lb.l, v.lb.b, out); err != nil {
				return err
			}
			return verifyBits("pool", out, ref)
		})
		if err != nil {
			return nil, err
		}
		pool.Speedup = 1
		pool.Coalesce = 1

		// Batch leg: same callers, same frames, but requests coalesce in
		// the micro-batcher. Opportunistic window (no added latency):
		// whatever queues behind busy dispatchers joins the next sweep.
		bat := serve.New(engine, serve.Options{
			Window:      -1,
			MaxBatch:    c,
			QueueLimit:  4 * c,
			Dispatchers: min(c, runtime.GOMAXPROCS(0)),
		})
		batch, err := cell("batch", c, func(g int, v *variant, ref *core.Result) error {
			out := &outs[g]
			if err := bat.Compute(v.pos, v.types, n, v.lb.l, v.lb.b, out); err != nil {
				return err
			}
			return verifyBits("batch", out, ref)
		})
		st := bat.Stats()
		if cerr := bat.Close(context.Background()); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		batch.Speedup = float64(pool.PerOp) / float64(batch.PerOp)
		if st.Batches > 0 {
			batch.Coalesce = float64(st.Frames) / float64(st.Batches)
		}
		res.Rows = append(res.Rows, pool, batch)
	}
	return res, nil
}

// verifyBits checks a measured result against its serial reference —
// bit-identical forces, equal energy — and fails the experiment loudly
// otherwise.
func verifyBits(leg string, out, ref *core.Result) error {
	if out.Energy != ref.Energy {
		return fmt.Errorf("experiments: load: %s leg energy %.17g != serial %.17g", leg, out.Energy, ref.Energy)
	}
	for i := range ref.Force {
		if math.Float64bits(out.Force[i]) != math.Float64bits(ref.Force[i]) {
			return fmt.Errorf("experiments: load: %s leg force[%d] differs from serial", leg, i)
		}
	}
	return nil
}

// httpEvaluate posts one evaluate request to a dpserve daemon and
// verifies the response against the serial reference. JSON float64
// round-trips exactly (shortest-repr encoding), so bitwise comparison
// remains valid over the wire.
func httpEvaluate(client *http.Client, base string, body []byte, ref *core.Result) error {
	resp, err := client.Post(base+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Energy float64   `json:"energy"`
		Forces []float64 `json:"forces"`
		Error  string    `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decode response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon answered %d: %s", resp.StatusCode, out.Error)
	}
	if out.Energy != ref.Energy {
		return fmt.Errorf("http energy %.17g != serial %.17g", out.Energy, ref.Energy)
	}
	for i := range ref.Force {
		if math.Float64bits(out.Forces[i]) != math.Float64bits(ref.Force[i]) {
			return fmt.Errorf("http force[%d] differs from serial", i)
		}
	}
	return nil
}

// percentile picks the p-quantile of sorted latencies by
// nearest-rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String prints the load table.
func (r *LoadResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, w := range r.Rows {
		coalesce := "-"
		if w.Coalesce > 0 {
			coalesce = fmt.Sprintf("%.2f", w.Coalesce)
		}
		rows = append(rows, []string{
			w.Leg,
			fmt.Sprintf("%d", w.Conc),
			ms(w.PerOp),
			ms(w.P50),
			ms(w.P95),
			ms(w.P99),
			coalesce,
			fmt.Sprintf("%.2f", w.Speedup),
		})
	}
	head := fmt.Sprintf("Serving load: %d-atom water frames, per-request pool vs cross-request micro-batching (ms; every response verified bit-identical to serial)\n", r.Atoms)
	if r.URL != "" {
		head = fmt.Sprintf("Serving load over HTTP against %s (%d-atom water frames, ms; responses verified bit-identical to serial)\n", r.URL, r.Atoms)
	}
	return head + table([]string{"leg", "conc", "agg/eval", "p50", "p95", "p99", "coalesce", "speedup"}, rows)
}

// Records emits the machine-readable rows for BENCH_PR7.json.
func (r *LoadResult) Records() []Record {
	recs := make([]Record, 0, len(r.Rows))
	for _, w := range r.Rows {
		recs = append(recs, Record{
			Experiment: "load",
			Shape:      fmt.Sprintf("water-%datoms/%s-c%d", r.Atoms, w.Leg, w.Conc),
			NsPerOp:    float64(w.PerOp.Nanoseconds()),
			Speedup:    w.Speedup,
			P50Ns:      float64(w.P50.Nanoseconds()),
			P95Ns:      float64(w.P95.Nanoseconds()),
			P99Ns:      float64(w.P99.Nanoseconds()),
		})
	}
	return recs
}
