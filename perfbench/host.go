package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"deepmd-go/internal/tensor"
)

// Host describes the machine and build a results file was measured on.
type Host struct {
	CPU        string      `json:"cpu"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	BuildTags  string      `json:"build_tags"`
	Kernels    tensor.Info `json:"kernels"`
}

func hostInfo() Host {
	h := Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernels:    tensor.KernelInfo(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				h.BuildTags = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the CPU model name on Linux; elsewhere it reports the
// architecture only.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
