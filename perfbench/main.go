// Command perfbench is the repository's end-to-end benchmark: paper-geometry
// MD throughput for water and copper, a 2-rank TCP strong-scaling run and
// open-loop dpserve latency, with a traced mode that times calls into each
// layer from the benchmark's own code. See README.md.
//
// Run it through run.sh from the repository root, which builds this
// program and the dpserve daemon first:
//
//	bash perfbench/run.sh --workload water-md --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it summarize the run. The full record (host, samples tagged with the
// seed, gates, spans) is written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"water-md":    func(rc *runCtx) (*outcome, error) { return runMD(waterMD(), rc) },
	"copper-md":   func(rc *runCtx) (*outcome, error) { return runMD(copperMD(), rc) },
	"water-tcp2":  runTCP2,
	"water-serve": runServe,
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"water-md", "copper-md", "water-tcp2", "water-serve"}

// runCtx is one invocation's parameters.
type runCtx struct {
	root     string // repository root (holds the built dpserve under .bench_build)
	workload string
	seed     int64
	budget   time.Duration // measured time of the run
	trace    bool
	tracer   *Tracer
	log      io.Writer
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// gate is one correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what a workload run measured.
type outcome struct {
	values    map[string]float64 // end-to-end metrics
	layers    map[string]float64 // per-layer metrics (traced runs)
	attempted int
	failed    int
	gates     []gate
	samples   map[string][]float64
	dists     map[string]Dist
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		values:  make(map[string]float64),
		samples: make(map[string][]float64),
		dists:   make(map[string]Dist),
		info:    make(map[string]any),
	}
}

// gate records a correctness check; a failed check is a failed operation.
func (oc *outcome) gate(name string, ok bool, detail string) {
	oc.gates = append(oc.gates, gate{name, ok, detail})
	oc.attempted++
	if !ok {
		oc.failed++
	}
}

// countSteps records n timed operations of which bad failed.
func (oc *outcome) countSteps(n, bad int) {
	oc.attempted += n
	oc.failed += bad
}

func (oc *outcome) correct() bool {
	for _, g := range oc.gates {
		if !g.OK {
			return false
		}
	}
	return oc.failed == 0
}

// zeroLayers returns every per-layer metric at 0: a layer the workload
// bypasses reports 0.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.Name] = 0
	}
	return v
}

// record is the results file written per run.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     Host               `json:"host"`
	Started  time.Time          `json:"started"`
	Result   Result             `json:"result"`
	Gates    []gate             `json:"gates"`
	Dists    map[string]Dist    `json:"dists"`
	Info     map[string]any     `json:"info"`
	Samples  []taggedSamples    `json:"samples"`
	Values   map[string]float64 `json:"end_to_end,omitempty"`
}

// taggedSamples are one series of raw samples, tagged with the seed of
// the workload input they were measured on.
type taggedSamples struct {
	Name   string    `json:"name"`
	Seed   int64     `json:"seed"`
	Values []float64 `json:"values"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (run.sh passes it)")
	out := fs.String("out", "", "directory for the results file and spans (empty: none)")
	name := fs.String("workload", "", "water-md | copper-md | water-tcp2 | water-serve | all")
	seed := fs.Int64("seed", 1, "workload input seed")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateSpecs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want water-md, copper-md, water-tcp2, water-serve or all)\n", n)
			return 2
		}
	}
	for _, n := range names {
		rc := &runCtx{
			root: *root, workload: n, seed: *seed, trace: *trace == 1, log: stdout,
			budget: time.Duration(*seconds * float64(time.Second)),
		}
		if rc.trace {
			rc.tracer = NewTracer(int(*seed))
		}
		line, err := runOne(rc, *out, workloads[n])
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// runOne runs one workload and returns its result line.
func runOne(rc *runCtx, outDir string, fn func(*runCtx) (*outcome, error)) (string, error) {
	started := time.Now()
	host := hostInfo()
	rc.logf("perfbench %s seed %d: %s, nproc %d, GOMAXPROCS %d, %s, %s kernels",
		rc.workload, rc.seed, host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernels.Family)
	oc, err := fn(rc)
	if err != nil {
		return "", err
	}
	for _, g := range oc.gates {
		status := "pass"
		if !g.OK {
			status = "FAIL"
		}
		rc.logf("gate %s: %s (%s)", status, g.Name, g.Detail)
	}
	rc.logf("error_rate %d/%d", oc.failed, oc.attempted)
	specs, values := endToEnd, oc.values
	if rc.trace {
		specs, values = perLayer, oc.layers
		if values == nil {
			return "", errors.New("traced run produced no per-layer metrics")
		}
	}
	res, err := newResult(specs, values, oc.attempted, oc.failed, oc.correct())
	if err != nil {
		return "", err
	}
	if outDir != "" {
		if err := writeRecord(rc, outDir, host, started, res, oc); err != nil {
			return "", err
		}
	}
	return res.line(), nil
}

// writeRecord writes the run's results file and, for a traced run, its
// spans, one JSON object per line.
func writeRecord(rc *runCtx, dir string, host Host, started time.Time, res Result, oc *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, btoi(rc.trace)))
	rec := record{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.budget.Seconds(), Trace: rc.trace,
		Host: host, Started: started, Result: res, Gates: oc.gates, Dists: oc.dists, Info: oc.info,
	}
	if rc.trace {
		rec.Values = oc.values
	}
	for k, s := range oc.samples {
		rec.Samples = append(rec.Samples, taggedSamples{Name: k, Seed: rc.seed, Values: s})
	}
	sort.Slice(rec.Samples, func(i, j int) bool { return rec.Samples[i].Name < rec.Samples[j].Name })
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rc.tracer == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := rc.tracer.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
