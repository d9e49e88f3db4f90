// Package cpufeat is a fixture stand-in for the real dispatch package:
// the analyzer matches it by import-path suffix, so the fixture exercises
// the checks without loading the module's assembly-bearing tree.
package cpufeat

// Family enumerates the kernel families, mirroring the real package.
type Family int

const (
	Generic Family = iota
	AVX2
	AVX512
)

var active Family

// Active returns the selected family.
func Active() Family { return active }

// SetActive selects fam (exempt here: calls inside cpufeat are the
// env-override path).
func SetActive(fam Family) { active = fam }
