package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestMetricNamesValid(t *testing.T) {
	if err := validateSpecs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]MetricSpec{
		{{"_lead", "ms", "lower"}},
		{{"has space", "ms", "lower"}},
		{{strings.Repeat("a", 65), "ms", "lower"}},
		{{"ok", "", "lower"}},
		{{"ok", "seventeen-chars-x", "lower"}},
		{{"ok", "m s", "lower"}},
		{{"ok", "ms", "faster"}},
		{{"dup", "ms", "lower"}, {"dup", "s", "lower"}},
	} {
		if err := validateSpecs(bad); err == nil {
			t.Errorf("validateSpecs(%v) accepted an invalid list", bad)
		}
	}
	// A name may not appear in both lists.
	if err := validateSpecs(endToEnd, []MetricSpec{endToEnd[0]}); err == nil {
		t.Error("a name used in both lists was accepted")
	}
}

// BENCHMARK.json must list exactly the metrics the program reports, with
// the same units and directions, and setup_s with the largest bound.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []MetricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program reports %s/%s/%s", i, m.Name, m.Unit, m.Better, want.Name, want.Unit, want.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, m, perLayer[i])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
}

func TestNewResultRejectsMissingExtraAndNaN(t *testing.T) {
	full := map[string]float64{}
	for _, m := range endToEnd {
		full[m.Name] = 1.5
	}
	r, err := newResult(endToEnd, full, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(r.line()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct/attempted/failed/metrics", back)
	}
	missing := map[string]float64{"setup_s": 1}
	if _, err := newResult(endToEnd, missing, 3, 0, true); err == nil {
		t.Error("missing metrics accepted")
	}
	extra := map[string]float64{"bogus": 1}
	for k, v := range full {
		extra[k] = v
	}
	if _, err := newResult(endToEnd, extra, 3, 0, true); err == nil {
		t.Error("unknown metric accepted")
	}
	full["setup_s"] = math.NaN()
	if _, err := newResult(endToEnd, full, 3, 0, true); err == nil {
		t.Error("NaN metric accepted")
	}
}
