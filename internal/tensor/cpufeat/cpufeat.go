// Package cpufeat probes the host CPU once at init and owns the runtime
// kernel-family selection that internal/tensor and internal/compress
// consult on every dispatch. The probe (CPUID/XGETBV on amd64) never runs
// under the `purego` build tag or on other architectures, so those builds
// report no SIMD support and every caller falls back to the portable
// generic kernels — the mandatory fallback contract of DESIGN.md.
//
// The active family is stored in an atomic so the serving path can read it
// from many goroutines while tests (or the DEEPMD_KERNEL environment
// variable) force a weaker family. Forcing can only step *down*: a family
// is selectable only when the host and the build both support it, and
// Generic is always selectable.
package cpufeat

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Family identifies one compiled SIMD kernel family.
type Family int32

const (
	// Generic selects the portable Go kernels (the purego contract).
	Generic Family = iota
	// AVX2 selects the 256-bit AVX2+FMA kernels (amd64).
	AVX2
	// AVX512 selects the 512-bit masked AVX-512F kernels (amd64).
	AVX512
)

// String returns the name used in banners, JSON records and DEEPMD_KERNEL.
func (f Family) String() string {
	switch f {
	case Generic:
		return "generic"
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return fmt.Sprintf("family(%d)", int32(f))
}

// Features is the raw probe result. Fields are false when the build
// excludes the probe (purego, GOARCH other than amd64).
type Features struct {
	FMA      bool // FMA3
	AVX2     bool // AVX2, implies AVX
	AVX512F  bool
	AVX512DQ bool
	AVX512VL bool
	OSAVX    bool // OS saves ymm state (XCR0)
	OSAVX512 bool // OS saves zmm/opmask state (XCR0)
}

// List returns the detected feature names, for banners and KernelInfo.
func (f Features) List() []string {
	var s []string
	add := func(ok bool, name string) {
		if ok {
			s = append(s, name)
		}
	}
	add(f.FMA, "fma")
	add(f.AVX2, "avx2")
	add(f.AVX512F, "avx512f")
	add(f.AVX512DQ, "avx512dq")
	add(f.AVX512VL, "avx512vl")
	add(f.OSAVX, "osavx")
	add(f.OSAVX512, "osavx512")
	return s
}

var (
	feats  Features // filled by init via the per-arch detect (detect_*.go)
	active atomic.Int32
	// envNote records a DEEPMD_KERNEL request that could not be honored.
	envNote string
)

// EnvVar is the environment variable that forces a kernel family at
// startup: one of "generic" (alias "purego"), "avx2", "avx512".
// Requests for families the host or build does not support are ignored
// (noted in Note()).
const EnvVar = "DEEPMD_KERNEL"

// Detect returns the raw feature probe of the host.
func Detect() Features { return feats }

// Available reports whether family f's kernels are compiled into this
// binary and supported by the host CPU and OS.
func Available(f Family) bool {
	switch f {
	case Generic:
		return true
	case AVX2:
		return feats.AVX2 && feats.FMA && feats.OSAVX
	case AVX512:
		// The kernels use AVX512F instructions on zmm plus k-mask
		// loads/stores only, but VL is required for the EVEX-128/256
		// tails of mixed sequences and DQ is what real targets ship
		// alongside F, so gate on the full trio to stay off the
		// Knights-era subsets the kernels were never tested on.
		// AVX2 is also required: the AVX-512 family borrows the
		// AVX2-encoded NT dot tile and FMA microkernel.
		return feats.AVX512F && feats.AVX512DQ && feats.AVX512VL &&
			feats.AVX2 && feats.FMA && feats.OSAVX && feats.OSAVX512
	}
	return false
}

// Best returns the fastest available family on this host/build.
func Best() Family {
	switch {
	case Available(AVX512):
		return AVX512
	case Available(AVX2):
		return AVX2
	}
	return Generic
}

// Active returns the family the dispatch tables currently select.
func Active() Family { return Family(active.Load()) }

// SetActive forces the active family and returns the previous one. It
// fails (leaving the selection unchanged) when f is not Available — tests
// use it to sweep every family the host can execute, and dpbench uses it
// to time the generic kernels on a SIMD host.
func SetActive(f Family) (Family, error) {
	if !Available(f) {
		return Active(), fmt.Errorf("cpufeat: kernel family %s not available on this host/build", f)
	}
	return Family(active.Swap(int32(f))), nil
}

// Note reports a startup DEEPMD_KERNEL request that was ignored ("" when
// none was).
func Note() string { return envNote }

func init() {
	// Explicit call rather than a per-file init: file-order init would pick
	// the family before the probe ran.
	feats = detect()
	sel := Best()
	if req, ok := os.LookupEnv(EnvVar); ok && req != "" {
		if f, err := parseFamily(req); err != nil {
			envNote = fmt.Sprintf("%s=%q not recognized, using %s", EnvVar, req, sel)
		} else if !Available(f) {
			envNote = fmt.Sprintf("%s=%s not available on this host/build, using %s", EnvVar, req, sel)
		} else {
			sel = f
		}
	}
	active.Store(int32(sel))
}

func parseFamily(s string) (Family, error) {
	switch s {
	case "generic", "purego":
		return Generic, nil
	case "avx2":
		return AVX2, nil
	case "avx512":
		return AVX512, nil
	}
	return Generic, fmt.Errorf("unknown family %q", s)
}
