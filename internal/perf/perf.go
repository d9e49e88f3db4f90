// Package perf provides the measurement layer of the library: wall-clock
// timers, analytic FLOP accounting and per-operator-category time
// accounting.
//
// The paper measures FLOPs with NVIDIA NVPROF and reports a percent-stacked
// breakdown of GPU time per TensorFlow operator class (Fig. 3). This package
// is the CPU substitute: every kernel in internal/tensor and
// internal/descriptor reports its FLOPs analytically and its elapsed time
// under one of the categories below, so the same tables and figures can be
// regenerated.
package perf

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Category classifies an operator the same way Fig. 3 of the paper does.
type Category int

const (
	// CatGEMM covers matrix-matrix multiplication (MATMUL and the fused
	// GEMM operators).
	CatGEMM Category = iota
	// CatTANH covers activation and activation-gradient kernels.
	CatTANH
	// CatSLICE covers bandwidth-bound data movement: slicing, concat,
	// padding, format conversion.
	CatSLICE
	// CatCUSTOM covers the customized operators: Environment, ProdForce,
	// ProdVirial and neighbor-list formatting.
	CatCUSTOM
	// CatOther covers everything else (reductions, bias adds, copies).
	CatOther

	numCategories
)

// String returns the Fig. 3 label for the category.
func (c Category) String() string {
	switch c {
	case CatGEMM:
		return "GEMM"
	case CatTANH:
		return "TANH"
	case CatSLICE:
		return "SLICE"
	case CatCUSTOM:
		return "CUSTOM"
	default:
		return "Others"
	}
}

// Counter accumulates FLOPs and per-category wall time. It is safe for
// concurrent use; all fields are updated atomically so rank goroutines can
// share one counter.
type Counter struct {
	flops   atomic.Int64
	catTime [numCategories]atomic.Int64 // nanoseconds
}

// NewCounter returns a zeroed Counter.
func NewCounter() *Counter { return &Counter{} }

// AddFLOPs records n floating point operations.
func (c *Counter) AddFLOPs(n int64) {
	if c != nil {
		c.flops.Add(n)
	}
}

// AddTime records elapsed wall time under the given category.
func (c *Counter) AddTime(cat Category, d time.Duration) {
	if c != nil {
		c.catTime[cat].Add(int64(d))
	}
}

// Observe records both time and FLOPs for one kernel invocation.
func (c *Counter) Observe(cat Category, start time.Time, flops int64) {
	if c == nil {
		return
	}
	c.catTime[cat].Add(int64(time.Since(start)))
	c.flops.Add(flops)
}

// FLOPs returns the accumulated floating point operation count.
func (c *Counter) FLOPs() int64 {
	if c == nil {
		return 0
	}
	return c.flops.Load()
}

// CategoryTime returns the accumulated wall time for one category.
func (c *Counter) CategoryTime(cat Category) time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.catTime[cat].Load())
}

// TotalTime returns the summed wall time across all categories.
func (c *Counter) TotalTime() time.Duration {
	var t time.Duration
	for i := Category(0); i < numCategories; i++ {
		t += c.CategoryTime(i)
	}
	return t
}

// Breakdown returns the percentage of operator time spent in each category,
// in the order GEMM, TANH, SLICE, CUSTOM, Others. Percentages sum to 100
// unless no time was recorded, in which case all are zero.
func (c *Counter) Breakdown() map[string]float64 {
	out := make(map[string]float64, numCategories)
	total := c.TotalTime()
	for i := Category(0); i < numCategories; i++ {
		p := 0.0
		if total > 0 {
			p = 100 * float64(c.CategoryTime(i)) / float64(total)
		}
		out[i.String()] = p
	}
	return out
}

// BreakdownString formats the category breakdown as a single line, largest
// first, e.g. "GEMM 63.1% TANH 12.0% ...".
func (c *Counter) BreakdownString() string {
	b := c.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return b[keys[i]] > b[keys[j]] })
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %.1f%%", k, b[k])
	}
	return sb.String()
}

// Reset zeroes all counters.
func (c *Counter) Reset() {
	c.flops.Store(0)
	for i := range c.catTime {
		c.catTime[i].Store(0)
	}
}
