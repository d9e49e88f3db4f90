package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/serve"

	deepmd "deepmd-go"
)

const (
	serveConns    = 2 // keep-alive connections of the load generator
	serveVariants = 3 // distinct frames the requests cycle through
	// fixedRate is the one offered rate serve latency is reported at:
	// between a third and a half of the capacity measured on a 2-core
	// Xeon (avx512) shared with other tenants (80-115 requests/s).
	fixedRate = 40.0 // requests/s
	// The capacity ladder: rung k offers ladderBase*ladderStep^k
	// requests/s for rungTime. A rung passes when no request fails, the
	// tail latency (percentile rule, up to p99) stays under latencyLimit
	// and the generator's lateness over the rung's last quarter stays
	// under it too (the backlog is not growing). A rung that fails is
	// offered once more before it counts as failed, so one scheduling
	// hiccup of the host does not end the climb.
	ladderBase   = 20.0
	ladderStep   = 1.05
	latencyLimit = 100 * time.Millisecond
	rungTime     = 2 * time.Second
	maxRungs     = 16
	// requestDeadline is the per-request deadline; a later answer is a
	// failed request.
	requestDeadline = time.Second
	serveSetupReps  = 15
)

// serveFrame is one request payload and the reference answer to it.
type serveFrame struct {
	body []byte
	pos  []float64
	typ  []int
	box  neighbor.Box
	want *core.Result
}

// serveFrames generates the request frames from the seed (64-molecule
// water boxes, 192 atoms) and evaluates each serially in-process on the
// daemon's built-in model, the reference every response must match bit
// for bit.
func serveFrames(seed int64) ([]serveFrame, *core.Model, error) {
	model, err := core.New(tinyWater()) // dpserve's built-in model keeps TinyConfig's seed
	if err != nil {
		return nil, nil, err
	}
	eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(1))
	if err != nil {
		return nil, nil, err
	}
	spec := deepmd.SpecFor(model.Cfg)
	var frames []serveFrame
	for v := range serveVariants {
		sys := deepmd.BuildWater(4, 4, 4, seed*serveVariants+int64(v))
		body, err := json.Marshal(map[string]any{"pos": sys.Pos, "types": sys.Types, "box": sys.Box.L})
		if err != nil {
			return nil, nil, err
		}
		list, err := neighbor.Build(spec, sys.Pos, sys.Types, sys.N(), &sys.Box, 1)
		if err != nil {
			return nil, nil, err
		}
		want, err := eng.Evaluate(sys.Pos, sys.Types, sys.N(), list, &sys.Box)
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, serveFrame{body: body, pos: sys.Pos, typ: sys.Types, box: sys.Box, want: want})
	}
	return frames, model, nil
}

// evalResponse is dpserve's /v1/evaluate answer.
type evalResponse struct {
	Energy float64   `json:"energy"`
	Forces []float64 `json:"forces"`
	Virial []float64 `json:"virial"`
}

// sameBits reports whether an answer is bit-identical to the reference.
func sameBits(energy float64, forces, virial []float64, want *core.Result) bool {
	if math.Float64bits(energy) != math.Float64bits(want.Energy) || len(forces) != len(want.Force) || len(virial) != len(want.Virial) {
		return false
	}
	for i, f := range forces {
		if math.Float64bits(f) != math.Float64bits(want.Force[i]) {
			return false
		}
	}
	for i, v := range virial {
		if math.Float64bits(v) != math.Float64bits(want.Virial[i]) {
			return false
		}
	}
	return allFinite(forces) && !math.IsNaN(energy) && !math.IsInf(energy, 0)
}

// daemon is a running dpserve process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed when its stderr is fully read
}

// startDaemon starts dpserve with its defaults on a free loopback port
// and waits until /healthz answers. The daemon's stderr (its start-up
// line, then the access log) is read to the end so it never blocks.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " on http://"); ok && !sent {
				host, _, _ := strings.Cut(rest, " ")
				addr <- "http://" + host
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("dpserve exited before listening")
		}
		d.url = u
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("dpserve did not start listening within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dpserve not healthy within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (killing it after 10 s) and waits
// for the process and its stderr reader to finish.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.drained
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return <-exited
	}
}

// reqResult is one open-loop request, timed from its due time.
type reqResult struct {
	Late    time.Duration // send time minus due time (generator lateness)
	Latency time.Duration // completion minus due time
	Err     error
}

// openLoop offers n requests at rate per second over conns senders. Each
// sender takes the next request of the fixed schedule, waits until it is
// due, sends it and waits for the answer; a slow answer therefore delays
// later requests, and that delay shows both in their latency (timed from
// the due time) and in their lateness. do performs request i.
func openLoop(rate float64, n, conns int, do func(i int) error) []reqResult {
	res := make([]reqResult, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				err := do(i)
				done := time.Now()
				res[i] = reqResult{Late: sent.Sub(due), Latency: done.Sub(due), Err: err}
			}
		}()
	}
	wg.Wait()
	return res
}

// loadStats summarizes an open-loop phase.
type loadStats struct {
	lat      Dist // ms, every request (a failed one counts as missing the limit)
	failed   int
	lateTail time.Duration // worst lateness over the last quarter
	service  time.Duration // mean send-to-answer time
}

func summarizeLoad(res []reqResult) loadStats {
	var ls loadStats
	var lat []float64
	var svc time.Duration
	for i, r := range res {
		l := r.Latency
		if r.Err != nil {
			ls.failed++
			l = max(l, requestDeadline)
		}
		lat = append(lat, ms(l))
		svc += r.Latency - r.Late
		if i >= len(res)*3/4 {
			ls.lateTail = max(ls.lateTail, r.Late)
		}
	}
	ls.lat = summarize(lat, 99)
	if len(res) > 0 {
		ls.service = svc / time.Duration(len(res))
	}
	return ls
}

// passes is the capacity ladder's rung criterion.
func (ls loadStats) passes() bool {
	limit := ms(latencyLimit)
	return ls.failed == 0 && ls.lat.Tail <= limit && ms(ls.lateTail) <= limit
}

// httpLoad drives the daemon's /v1/evaluate at a rate for a duration,
// checking every answer against the reference.
type httpLoad struct {
	client *http.Client
	url    string
	frames []serveFrame
	tr     *Tracer
}

func newHTTPLoad(url string, frames []serveFrame) *httpLoad {
	tp := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &httpLoad{
		client: &http.Client{Transport: tp, Timeout: requestDeadline},
		url:    url + "/v1/evaluate?timeout=" + requestDeadline.String(),
		frames: frames,
	}
}

func (h *httpLoad) close() { h.client.CloseIdleConnections() }

func (h *httpLoad) do(i int) error {
	f := &h.frames[i%len(h.frames)]
	var id int
	if h.tr != nil {
		id = h.tr.Begin("http.Evaluate", 0)
		defer h.tr.End(id)
	}
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(f.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var got evalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if !sameBits(got.Energy, got.Forces, got.Virial, f.want) {
		return errMismatch
	}
	return nil
}

var errMismatch = errors.New("answer differs from the serial in-process evaluation")

func (h *httpLoad) run(rate float64, d time.Duration) []reqResult {
	return openLoop(rate, max(1, int(rate*d.Seconds())), serveConns, h.do)
}

// rung returns the ladder rate of rung k.
func rung(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// rungBelow returns the highest rung at or below rate.
func rungBelow(rate float64) int {
	return max(0, int(math.Floor(math.Log(rate/ladderBase)/math.Log(ladderStep))))
}

// maxRate climbs the ladder from a start rung: up while rungs pass, down
// while they fail. It returns the highest passing rung's rate and the
// rates tried, or an error when maxRungs probes do not bracket the
// capacity.
func maxRate(start int, probe func(rate float64) bool) (float64, []float64, error) {
	var tried []float64
	try := func(k int) bool {
		tried = append(tried, rung(k))
		return probe(rung(k))
	}
	k := start
	if try(k) {
		for len(tried) < maxRungs {
			if !try(k + 1) {
				return rung(k), tried, nil
			}
			k++
		}
	} else {
		for k > 0 && len(tried) < maxRungs {
			k--
			if try(k) {
				return rung(k), tried, nil
			}
		}
	}
	return 0, tried, fmt.Errorf("capacity ladder not bracketed after %d rungs (tried %v requests/s)", len(tried), roundAll(tried))
}

// runServe is the water-serve workload.
func runServe(rc *runCtx) (*outcome, error) {
	oc := newOutcome()
	bin := filepath.Join(rc.root, ".bench_build", "bin", "dpserve")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("dpserve binary: %w (run.sh builds it)", err)
	}
	frames, model, err := serveFrames(rc.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	for rep := range serveSetupReps {
		t := time.Now()
		d, err = startDaemon(bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if rep < serveSetupReps-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("dpserve exit: %w", err)
			}
		}
	}
	defer d.stop()
	oc.values["setup_s"] = median(setups)
	oc.samples["setup_s"] = setups

	h := newHTTPLoad(d.url, frames)
	defer h.close()
	// Warm the daemon's evaluators and the connections.
	warm := h.run(fixedRate, 300*time.Millisecond)
	fixedDur := rc.budget / 2
	if rc.trace {
		fixedDur = rc.budget / 4
	}
	res := h.run(fixedRate, fixedDur)
	fixed := summarizeLoad(res)
	capEst := serveConns / fixed.service.Seconds()
	maxRPS, tried, ladderErr := maxRate(rungBelow(capEst), func(rate float64) bool {
		return summarizeLoad(h.run(rate, rungTime)).passes() || summarizeLoad(h.run(rate, rungTime)).passes()
	})
	all := append(warm, res...)
	oc.gate(fmt.Sprintf("every fixed-rate HTTP answer bit-identical to the serial in-process evaluation (%d frames)", len(frames)),
		mismatches(all) == 0, fmt.Sprintf("%d of %d answers differ", mismatches(all), len(all)))
	oc.countSteps(len(res), fixed.failed)
	if ladderErr != nil {
		return nil, ladderErr
	}

	atoms := len(frames[0].typ)
	oc.values["throughput_per_s"] = maxRPS
	oc.values["latency_ms_p50"] = fixed.lat.P50
	if oc.values["mem_bytes_per_atom"], err = serveHeapPerAtom(model, frames); err != nil {
		return nil, err
	}
	oc.dists["latency_ms"] = fixed.lat
	lat := make([]float64, len(res))
	late := make([]float64, len(res))
	for i, r := range res {
		lat[i], late[i] = ms(r.Latency), ms(r.Late)
	}
	oc.samples["latency_ms"] = lat
	oc.samples["lateness_ms"] = late
	ld := summarize(late, 99)
	oc.dists["lateness_ms"] = ld
	oc.info["fixed_rate"] = fixedRate
	oc.info["ladder_tried"] = tried
	oc.info["capacity_estimate"] = capEst
	rc.logf("water-serve: %d-atom frames at %.0f req/s for %.1f s: latency p50 %.3f ms, p%.1f %.3f ms (n=%d, %d beyond), lateness p50 %.3f ms p%.1f %.3f ms; %d failed; max rate %.1f req/s (limit %v, rungs tried %v); serving heap %.0f B/atom; setup median %.3f s of %d",
		atoms, fixedRate, fixedDur.Seconds(), fixed.lat.P50, fixed.lat.TailPct, fixed.lat.Tail, fixed.lat.N, fixed.lat.Beyond,
		ld.P50, ld.TailPct, ld.Tail, fixed.failed, maxRPS, latencyLimit, roundAll(tried), oc.values["mem_bytes_per_atom"], median(setups), len(setups))
	if !rc.trace {
		return oc, nil
	}

	// Traced: the same schedule over HTTP with a span per request, then
	// in-process through serve.New over a timing wrapper of the engine.
	h.tr = rc.tracer
	tres := h.run(fixedRate, fixedDur)
	h.tr = nil
	traced := summarizeLoad(tres)
	oc.countSteps(len(tres), traced.failed)
	return oc, serveLayerMetrics(oc, model, frames, fixed, traced, fixedDur, rc)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}

// timedBatch is the benchmark's timing wrapper around the batcher's
// engine: a span per batch, and each frame's queue wait (batch start
// minus the time its request was submitted).
type timedBatch struct {
	inner serve.BatchEvaluator
	tr    *Tracer

	mu      sync.Mutex
	submit  map[*core.Result]time.Time
	waits   []float64 // ms
	batches []float64 // ms
	frames  int
}

func (b *timedBatch) MaxConcurrency() int {
	if h, ok := b.inner.(interface{ MaxConcurrency() int }); ok {
		return h.MaxConcurrency()
	}
	return 1
}

func (b *timedBatch) submitted(out *core.Result) {
	b.mu.Lock()
	b.submit[out] = time.Now()
	b.mu.Unlock()
}

func (b *timedBatch) ComputeBatch(frames []core.Frame) error {
	t := time.Now()
	b.mu.Lock()
	for _, f := range frames {
		if s, ok := b.submit[f.Out]; ok {
			b.waits = append(b.waits, ms(t.Sub(s)))
			delete(b.submit, f.Out)
		}
	}
	b.mu.Unlock()
	id := b.tr.Begin("serve.ComputeBatch", 0)
	err := b.inner.ComputeBatch(frames)
	b.tr.End(id)
	d := time.Since(t)
	b.mu.Lock()
	b.batches = append(b.batches, ms(d))
	b.frames += len(frames)
	b.mu.Unlock()
	return err
}

// inprocServe is the serving stack of dpserve without its HTTP layer:
// an engine with dpserve's defaults (1 worker per evaluation, GOMAXPROCS
// evaluators) behind serve.New with the default batcher options, the
// engine wrapped for timing.
type inprocServe struct {
	frames []serveFrame
	spec   neighbor.Spec
	tr     *Tracer
	tb     *timedBatch
	bat    *serve.Batcher

	mu      sync.Mutex
	buildMs []float64
}

func newInprocServe(model *core.Model, frames []serveFrame, tr *Tracer) (*inprocServe, error) {
	eng, err := deepmd.Open(model, deepmd.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	tb := &timedBatch{inner: eng, tr: tr, submit: make(map[*core.Result]time.Time)}
	return &inprocServe{frames: frames, spec: deepmd.SpecFor(model.Cfg), tr: tr, tb: tb, bat: serve.New(tb, serve.Options{})}, nil
}

// do serves request i as dpserve's handler does: build the frame's list,
// submit it to the batcher, check the answer.
func (s *inprocServe) do(i int) error {
	f := &s.frames[i%len(s.frames)]
	id := s.tr.Begin("serve.Evaluate", 0)
	defer s.tr.End(id)
	t := time.Now()
	list, err := neighbor.Build(s.spec, f.pos, f.typ, len(f.typ), &f.box, 1)
	bd := time.Since(t)
	s.tr.Add("neighbor.Build", id, t, bd)
	s.mu.Lock()
	s.buildMs = append(s.buildMs, ms(bd))
	s.mu.Unlock()
	if err != nil {
		return err
	}
	out := new(core.Result)
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	s.tb.submitted(out)
	if err := s.bat.Evaluate(ctx, f.pos, f.typ, len(f.typ), list, &f.box, out); err != nil {
		return err
	}
	if !sameBits(out.Energy, out.Force, out.Virial[:], f.want) {
		return errMismatch
	}
	return nil
}

// reset drops the timings recorded so far (after a warm-up).
func (s *inprocServe) reset() {
	s.mu.Lock()
	s.buildMs = nil
	s.mu.Unlock()
	s.tb.mu.Lock()
	s.tb.waits, s.tb.batches, s.tb.frames = nil, nil, 0
	s.tb.mu.Unlock()
}

func mismatches(res []reqResult) int {
	n := 0
	for _, r := range res {
		if errors.Is(r.Err, errMismatch) {
			n++
		}
	}
	return n
}

// serveHeapPerAtom is the live heap one of the serving engine's
// evaluators holds once warmed by a full batch (dpserve's default 8
// frames through Engine.ComputeBatch), per atom of that batch. The
// daemon's own heap is not observable from outside it, and the batches
// a timed schedule happens to coalesce vary run to run; a full batch is
// the deterministic high-water mark.
func serveHeapPerAtom(model *core.Model, frames []serveFrame) (float64, error) {
	const batch = 8
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(1))
	if err != nil {
		return 0, err
	}
	spec := deepmd.SpecFor(model.Cfg)
	fs := make([]core.Frame, batch)
	atoms := 0
	for i := range fs {
		f := &frames[i%len(frames)]
		list, err := neighbor.Build(spec, f.pos, f.typ, len(f.typ), &f.box, 1)
		if err != nil {
			return 0, err
		}
		fs[i] = core.Frame{Pos: f.pos, Types: f.typ, Nloc: len(f.typ), List: list, Box: &f.box, Out: new(core.Result)}
		atoms += len(f.typ)
	}
	for range 2 {
		if err := eng.ComputeBatch(fs); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(fs)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(atoms), nil
}

// serveLayerMetrics runs the in-process leg and derives the per-layer
// metrics of a traced water-serve run.
func serveLayerMetrics(oc *outcome, model *core.Model, frames []serveFrame, fixed, traced loadStats, d time.Duration, rc *runCtx) error {
	v := zeroLayers()
	s, err := newInprocServe(model, frames, rc.tracer)
	if err != nil {
		return err
	}
	openLoop(fixedRate, 60, serveConns, s.do) // warm-up
	s.reset()
	t0 := time.Now()
	ires := openLoop(fixedRate, max(1, int(fixedRate*d.Seconds())), serveConns, s.do)
	wall := time.Since(t0)
	stats := s.bat.Stats()
	if err := s.bat.Close(context.Background()); err != nil {
		return err
	}
	in := summarizeLoad(ires)
	oc.countSteps(len(ires), in.failed)
	oc.gate("every traced in-process batcher answer bit-identical to the serial evaluation", mismatches(ires) == 0,
		fmt.Sprintf("%d of %d answers differ", mismatches(ires), len(ires)))

	tb := s.tb
	qw := summarize(tb.waits, 99)
	batchMean := mean(tb.batches)
	perFrame := sum(tb.batches) / float64(max(1, tb.frames))
	v["serve.queue_wait_ms_p50"] = qw.P50
	v["serve.queue_wait_ms_p99"] = qw.Tail
	v["serve.batch_ms"] = batchMean
	v["serve.frames_per_batch"] = float64(tb.frames) / float64(max(1, len(tb.batches)))
	v["serve.rejected"] = float64(stats.Rejected)
	v["http.overhead_ms_p50"] = traced.lat.P50 - in.lat.P50
	v["trace.serve_p50_ms_delta"] = traced.lat.P50 - fixed.lat.P50
	v["neighbor.build_ms"] = mean(s.buildMs)
	v["neighbor.builds"] = float64(len(s.buildMs))
	v["core.compute_ms"] = perFrame
	v["core.compute_share"] = sum(tb.batches) / ms(wall)

	f0 := frames[0]
	list, err := neighbor.Build(s.spec, f0.pos, f0.typ, len(f0.typ), &f0.box, 1)
	if err != nil {
		return err
	}
	f := frame{pos: f0.pos, types: f0.typ, nloc: len(f0.typ), list: list, box: &f0.box}
	v["core.gflops"] = flopsPerStep(model.Cfg, f.types, f.nloc, false) / (perFrame * 1e-3) / 1e9
	if err := probeInto[float64](v, model, f, false, 7, rc.seed); err != nil {
		return err
	}
	oc.layers = v
	rc.logf("water-serve traced: http p50 %.3f ms (untraced %.3f), in-process p50 %.3f ms (n=%d); queue wait p50 %.3f ms p%.1f %.3f ms (n=%d); batch %.3f ms, %.2f frames/batch, %d rejected",
		traced.lat.P50, fixed.lat.P50, in.lat.P50, in.lat.N, qw.P50, qw.TailPct, qw.Tail, qw.N, batchMean, v["serve.frames_per_batch"], stats.Rejected)
	return nil
}
