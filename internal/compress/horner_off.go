//go:build purego || !amd64

package compress

import "deepmd-go/internal/tensor"

// No vectorized Horner kernels in this build (purego, or a GOARCH other
// than amd64): every channel goes through the scalar recursion in evalSeg.
func hornerCover[T tensor.Float](cs []T, u, invH T, g, dg []T, m int) int { return 0 }
