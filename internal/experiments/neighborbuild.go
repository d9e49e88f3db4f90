package experiments

import (
	"fmt"
	"runtime"
	"time"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// NeighborResult is the serial-vs-parallel neighbor-list construction
// contrast. The companion work (Lu et al., arXiv:2004.11658) identifies
// environment/neighbor construction as a first-order cost at scale; this
// experiment shows the cell-binned build scaling over goroutines while
// producing bit-identical lists.
type NeighborResult struct {
	Atoms   int
	Pairs   int // total neighbor entries in the list
	Workers []int
	Times   []time.Duration // best-of-reps per worker count; Workers[0]=1 is the serial baseline
}

// NeighborBuild measures neighbor.Build on a water box at 1..maxWorkers
// goroutines (powers of two). Quick uses a small box; Full uses a
// ~100k-atom system, the scale of one GPU's sub-domain in the paper.
func NeighborBuild(sc Scale, maxWorkers int) (*NeighborResult, error) {
	nx, reps := 12, 5
	if sc == Full {
		nx, reps = 33, 3
	}
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}
	cell := lattice.Water(nx, nx, nx, lattice.WaterSpacing, 9)
	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{12, 24}}

	counts := []int{}
	for w := 1; w < maxWorkers; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, maxWorkers)

	lists := make([]*neighbor.List, len(counts))
	builds := make([]func() error, len(counts))
	for i, w := range counts {
		builds[i] = func() error {
			l, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, w)
			lists[i] = l
			return err
		}
	}
	times, err := measure(reps, builds...)
	if err != nil {
		return nil, err
	}
	res := &NeighborResult{Atoms: cell.N(), Workers: counts, Times: times}
	for _, row := range lists[0].Entries {
		res.Pairs += len(row)
	}
	for i, w := range counts[1:] {
		if err := sameList(lists[0], lists[i+1]); err != nil {
			return nil, fmt.Errorf("experiments: workers=%d: %w", w, err)
		}
	}
	return res, nil
}

// sameList verifies two lists are bit-identical (same rows, same order).
func sameList(a, b *neighbor.List) error {
	if a.Nloc != b.Nloc {
		return fmt.Errorf("nloc %d != %d", a.Nloc, b.Nloc)
	}
	for i := range a.Entries {
		ra, rb := a.Entries[i], b.Entries[i]
		if len(ra) != len(rb) {
			return fmt.Errorf("atom %d: %d entries != %d", i, len(ra), len(rb))
		}
		for k := range ra {
			if ra[k] != rb[k] {
				return fmt.Errorf("atom %d entry %d: %+v != %+v", i, k, ra[k], rb[k])
			}
		}
	}
	return nil
}

func (r *NeighborResult) String() string {
	rows := make([][]string, 0, len(r.Workers))
	serial := r.Times[0]
	for i, w := range r.Workers {
		rows = append(rows, []string{
			fmt.Sprint(w),
			fmt.Sprintf("%.2f", r.Times[i].Seconds()*1000),
			fmt.Sprintf("%.2f", float64(serial)/float64(r.Times[i])),
		})
	}
	return fmt.Sprintf("Neighbor build: %d atoms, %d pairs (parallel lists verified bit-identical)\n", r.Atoms, r.Pairs) +
		table([]string{"workers", "build[ms]", "speedup"}, rows)
}
