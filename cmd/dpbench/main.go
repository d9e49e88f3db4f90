// Command dpbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	dpbench -exp table1|table3|fusion|fig3|fig4|fig5|fig6|fig7|table4|mixed|single|setup|scaling|mpiscale|neighbor|gemm|batch|compress|load|all
//	        [-full] [-ranks N] [-workers N] [-json] [-url http://host:port]
//
// By default experiments run at Quick scale (seconds on one CPU core);
// -full uses the paper's network geometry and larger systems. Every
// per-operation time is the fastest of samples taken in rounds that
// interleave the variants being compared; load alone reports latency
// percentiles under concurrency. -json
// suppresses the tables and prints a JSON array of machine-readable
// measurements (experiment, shape, ns/op, speedup, latency percentiles)
// from the experiments that support them — the perf trajectory seeded in
// BENCH_*.json and uploaded as a CI artifact. With -json, stdout carries
// ONLY the JSON array; all human-readable progress and diagnostics go to
// stderr, so `dpbench -json > BENCH.json` can never capture corrupt JSON.
// -url points the load experiment at a running dpserve daemon instead of
// driving the serving stack in-process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deepmd-go/internal/experiments"
	"deepmd-go/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process seams injected: args are the command-line
// arguments, stdout receives results (and nothing else in -json mode),
// stderr receives progress and errors. The exit code is returned instead
// of calling os.Exit, so tests can drive the whole binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (comma separated): table1, table3, fusion, fig3, fig4, fig5, fig6, fig7, table4, mixed, single, setup, scaling, mpiscale, neighbor, gemm, batch, compress, load, all")
	full := fs.Bool("full", false, "use paper-scale networks and larger systems (slow on CPU)")
	ranks := fs.Int("ranks", 4, "simulated ranks for setup/scaling experiments")
	workers := fs.Int("workers", 8, "max goroutines for the neighbor, gemm, batch and compress experiments; concurrent callers for load")
	jsonOut := fs.Bool("json", false, "print machine-readable JSON records on stdout (all human output moves to stderr)")
	url := fs.String("url", "", "drive the load experiment against a running dpserve daemon at this base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The dispatch banner is diagnostics, never data: stderr in both
	// modes, so measurements stay attributable without polluting -json.
	fmt.Fprintf(stderr, "dpbench: %s\n", tensor.KernelInfo())

	sc := experiments.Quick
	if *full {
		sc = experiments.Full
	}

	run := map[string]func() (any, error){
		"table1": func() (any, error) { return experiments.Table1(sc) },
		"table3": func() (any, error) {
			nx, reps := 5, 5
			if *full {
				nx, reps = 8, 3
			}
			res, err := experiments.Table3(sc, nx, reps)
			if err != nil {
				return nil, err
			}
			st, rx, err := experiments.AblationSort(sc, nx, reps)
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("%v\nAblation (Sec 5.2.2): struct sort %.2f ms vs compressed radix %.2f ms (%.1fx)\n",
				res, st.Seconds()*1000, rx.Seconds()*1000, float64(st)/float64(rx)), nil
		},
		"fusion": func() (any, error) { return experiments.Fusion(sc, 5), nil },
		"fig3":   func() (any, error) { return experiments.Fig3(sc, 3) },
		"fig4":   func() (any, error) { return experiments.Fig4(sc) },
		"fig5":   func() (any, error) { return experiments.Fig5Table(), nil },
		"fig6":   func() (any, error) { return experiments.Fig6Table(), nil },
		"table4": func() (any, error) { return experiments.Table4Text(), nil },
		"fig7":   func() (any, error) { return experiments.Fig7(sc) },
		"mixed":  func() (any, error) { return experiments.Mixed(sc, 3) },
		"single": func() (any, error) { return experiments.Single(sc, 3) },
		"setup": func() (any, error) {
			txt, _, err := experiments.SetupText(sc, *ranks)
			return txt, err
		},
		"gemm":     func() (any, error) { return experiments.GemmKernels(sc, *workers) },
		"batch":    func() (any, error) { return experiments.DescriptorBatch(sc, *workers) },
		"compress": func() (any, error) { return experiments.CompressEmbedding(sc, *workers) },
		"load":     func() (any, error) { return experiments.Load(sc, *workers, *url) },
		"neighbor": func() (any, error) { return experiments.NeighborBuild(sc, *workers) },
		"scaling": func() (any, error) {
			counts := []int{1, 2, 4}
			if *ranks > 4 {
				counts = append(counts, *ranks)
			}
			return experiments.LocalScaling(sc, 20, counts)
		},
		"mpiscale": func() (any, error) { return experiments.MPIScaling(sc, 0) },
	}
	order := []string{"table1", "table3", "fusion", "fig3", "mixed", "single", "gemm", "batch", "compress", "load", "neighbor", "fig4", "fig5", "fig6", "table4", "setup", "scaling", "mpiscale", "fig7"}

	var names []string
	if *exp == "all" {
		names = order
	} else {
		names = strings.Split(*exp, ",")
	}
	// Only these experiments report machine-readable records; in -json mode
	// the others are skipped up front instead of silently burning their
	// runtime and contributing nothing.
	recorders := map[string]bool{"gemm": true, "batch": true, "compress": true, "load": true, "mpiscale": true}
	records := []experiments.Record{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		f, ok := run[name]
		if !ok {
			fmt.Fprintf(stderr, "dpbench: unknown experiment %q\n", name)
			return 2
		}
		if *jsonOut && !recorders[name] {
			fmt.Fprintf(stderr, "dpbench: %s produces no JSON records; skipping\n", name)
			continue
		}
		// The banner is progress, not data: with -json it belongs on
		// stderr so stdout stays a single parseable JSON document.
		if *jsonOut {
			fmt.Fprintf(stderr, "==== %s ====\n", name)
		} else {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
		}
		res, err := f()
		if err != nil {
			fmt.Fprintf(stderr, "dpbench: %s: %v\n", name, err)
			return 1
		}
		if *jsonOut {
			if rec, ok := res.(experiments.Recorder); ok {
				records = append(records, rec.Records()...)
			}
			continue
		}
		fmt.Fprintln(stdout, res)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(stderr, "dpbench: %v\n", err)
			return 1
		}
	}
	return 0
}
