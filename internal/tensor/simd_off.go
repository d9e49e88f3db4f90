//go:build purego || !amd64

package tensor

import "deepmd-go/internal/tensor/cpufeat"

// No SIMD kernels in this build: simdCaps reports nothing available, so
// pickTier never selects the SIMD tier and every GEMM routes through the
// portable blocked/naive engines — the purego contract. cpufeat's own
// purego detect keeps Active() at Generic, so the tile entry points below
// are unreachable.
func simdCaps(cpufeat.Family, int) (simdKernelCaps, bool) { return simdKernelCaps{}, false }

func tsTile[T Float](cpufeat.Family, *tileArgs) { panic("tensor: no SIMD kernels in this build") }

func ntTile[T Float](cpufeat.Family, *tileArgs) { panic("tensor: no SIMD kernels in this build") }
