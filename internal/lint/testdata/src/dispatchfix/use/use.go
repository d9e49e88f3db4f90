// Package use exercises the dispatch analyzer: Family switch
// completeness, SetActive call discipline, and //go:noescape stubs.
package use

import "dispatchfix/internal/tensor/cpufeat"

// Incomplete covers two of three families with no default.
func Incomplete(f cpufeat.Family) int {
	switch f { // want `switch over cpufeat.Family has no default and no case for AVX512`
	case cpufeat.Generic:
		return 0
	case cpufeat.AVX2:
		return 2
	}
	return -1
}

// Complete names every family.
func Complete(f cpufeat.Family) int {
	switch f {
	case cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512:
		return 1
	}
	return 0
}

// Defaulted is incomplete but has an explicit default.
func Defaulted(f cpufeat.Family) int {
	switch f {
	case cpufeat.AVX512:
		return 8
	default:
		return 0
	}
}

// Sweep forces a family without being a test or an annotated sweep,
// then does it properly.
func Sweep() {
	cpufeat.SetActive(cpufeat.AVX2) // want `cpufeat.SetActive may only be called from tests`
	//dp:allow dispatch fixture exercises the deliberate-sweep exemption
	cpufeat.SetActive(cpufeat.Generic)
}

func stub(x *float64) // want `assembly stub stub must be declared //go:noescape`

//go:noescape
func goodStub(x *float64)

var _ = stub
var _ = goodStub
