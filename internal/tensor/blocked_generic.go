//go:build purego || !amd64

package tensor

// microKernel64 falls back to the portable mul-add microkernel on builds
// without the amd64 FMA tile: purego by contract, and every other
// architecture (a math.FMA that carries a runtime feature-check branch
// per operation measures slower than separate multiply and add).
func microKernel64(kb int, ap, bp []float64) [mr * nr]float64 {
	return microKernelMulAdd(kb, ap, bp)
}
