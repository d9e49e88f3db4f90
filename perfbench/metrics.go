package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// MetricSpec names one metric the benchmark reports.
type MetricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Each workload fills them from its own unit
// of work: an MD step for the three MD workloads, an evaluate request for
// water-serve (see README.md). Tail latencies are printed and recorded
// with their sample counts but not reported here: on a shared 2-core host
// they spread too widely between runs to carry a regression bound.
var endToEnd = []MetricSpec{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"mem_bytes_per_atom", "B/atom", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's single-layer metrics. A layer the
// workload bypasses reports 0.
var perLayer = []MetricSpec{
	{"md.step_self_ms", "ms", "lower"},
	{"md.accounted_share", "share", "higher"},
	{"neighbor.build_ms", "ms", "lower"},
	{"neighbor.builds", "count", "lower"},
	{"core.compute_ms", "ms", "lower"},
	{"core.compute_share", "share", "lower"},
	{"core.gflops", "GFLOP/s", "higher"},
	{"core.parallel_eff", "share", "higher"},
	{"core.arena_bytes", "B", "lower"},
	{"descriptor.env_ms", "ms", "lower"},
	{"descriptor.prod_ms", "ms", "lower"},
	{"nn.embed_ms", "ms", "lower"},
	{"nn.fit_ms", "ms", "lower"},
	{"tensor.contract_ms", "ms", "lower"},
	{"compress.lookup_ms", "ms", "lower"},
	{"compress.table_bytes", "B", "lower"},
	{"mpi.msgs_per_step", "count", "lower"},
	{"mpi.bytes_per_step", "B", "lower"},
	{"domain.halo_wait_share", "share", "lower"},
	{"domain.rank_compute_ms", "ms", "lower"},
	{"domain.imbalance", "ratio", "lower"},
	{"domain.ghosts_per_rank", "count", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.batch_ms", "ms", "lower"},
	{"serve.frames_per_batch", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"http.overhead_ms_p50", "ms", "lower"},
	{"trace.ns_per_day_delta", "ns/day", "lower"},
	{"trace.serve_p50_ms_delta", "ms", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpecs checks names and units against the result-line grammar
// and that no name is used twice across both lists.
func validateSpecs(lists ...[]MetricSpec) error {
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, m := range l {
			if !nameRE.MatchString(m.Name) {
				return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better %q: want lower or higher", m.Name, m.Better)
			}
			if seen[m.Name] {
				return fmt.Errorf("metric %s: name used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return nil
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// newResult builds the result line for the given spec list from values,
// failing when a metric is missing, unknown or not a finite number.
func newResult(specs []MetricSpec, values map[string]float64, attempted, failed int, correct bool) (Result, error) {
	r := Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]Value, len(specs))}
	known := make(map[string]bool, len(specs))
	for _, m := range specs {
		known[m.Name] = true
		v, ok := values[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		r.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return r, fmt.Errorf("metrics %v are not in the reported list", extra)
	}
	if attempted < 1 {
		return r, fmt.Errorf("no operation was attempted")
	}
	return r, nil
}

// line renders the result as one JSON line.
func (r Result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats, strings and ints: cannot fail
	}
	return string(b)
}
