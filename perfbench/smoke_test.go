package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A brief pass over every workload in both modes: each run exits 0 and
// its last line reports every named metric with its unit, with every
// correctness gate passing. The paper-geometry MD workloads take tens of
// seconds each and are skipped under -short.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	root := t.TempDir()
	bin := filepath.Join(root, ".bench_build", "bin", "dpserve")
	build := exec.Command("go", "build", "-o", bin, "deepmd-go/cmd/dpserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dpserve: %v\n%s", err, out)
	}
	for _, w := range workloadOrder {
		if testing.Short() && strings.HasSuffix(w, "-md") {
			continue
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-root", root, "-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// Outside a repository checkout the wrapper must fail without printing
// a result.
func TestRunShRefusesWithoutCheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "water-md", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run()
	if err == nil {
		t.Fatal("run.sh succeeded outside a checkout")
	}
	if stdout.Len() != 0 {
		t.Fatalf("run.sh printed to stdout: %q", stdout.String())
	}
}
