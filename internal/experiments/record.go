package experiments

// Record is one machine-readable benchmark measurement. `dpbench -json`
// collects these from every experiment that implements Recorder and prints
// a JSON array, so the performance trajectory can be committed as
// BENCH_*.json files and tracked across PRs (and uploaded as a CI
// artifact).
type Record struct {
	// Experiment is the dpbench experiment name (e.g. "gemm", "batch").
	Experiment string `json:"experiment"`
	// Shape identifies the measured configuration within the experiment
	// (layer shape, system, worker count).
	Shape string `json:"shape"`
	// NsPerOp is the best-of-reps wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is the ratio against the experiment's reference variant
	// (1 for the reference itself; 0 when not applicable).
	Speedup float64 `json:"speedup,omitempty"`
	// P50Ns/P95Ns/P99Ns are per-request latency percentiles in
	// nanoseconds, emitted by experiments that measure a latency
	// distribution rather than a single per-op time (the `load`
	// experiment); zero elsewhere.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P95Ns float64 `json:"p95_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
	// Kernel attributes the measurement to the SIMD kernel family that
	// executed it ("avx512", "avx2", "generic", "naive"); empty
	// for experiments that don't dispatch through the kernel tables.
	Kernel string `json:"kernel,omitempty"`
	// Messages, LogicalBytes and WireBytes are the communication volume of
	// a distributed experiment: message count, codec-exact payload bytes,
	// and actual framed socket bytes (LogicalBytes + header×Messages).
	// Zero for single-process experiments.
	Messages     int64 `json:"messages,omitempty"`
	LogicalBytes int64 `json:"logical_bytes,omitempty"`
	WireBytes    int64 `json:"wire_bytes,omitempty"`
	// Overlap is the mean comm/compute overlap fraction of the per-step
	// halo exchange across ranks (1 = fully hidden behind local work).
	Overlap float64 `json:"overlap,omitempty"`
}

// Recorder is implemented by experiment results that can report their
// measurements as machine-readable records.
type Recorder interface {
	Records() []Record
}
