package experiments

import "time"

// minMeasure is the least wall time one measure call spends. Operations
// well under it get many samples instead of reps, so a burst of load on
// the host has to cover the whole window to move their fastest sample.
// With two busy loops on a 2-core host, a 50 ms window still let the
// few-ms AblationSort pair misorder about once in 20-30 runs.
const minMeasure = 200 * time.Millisecond

// measure times alternative implementations of one operation against
// each other. Each round calls every alternative once, rotating which
// goes first, so drifting load falls on all of them alike. Rounds
// continue until every alternative has at least reps samples and
// minMeasure has passed. It returns each alternative's fastest sample,
// in the order of fs. The first error stops the rounds and is returned
// unchanged.
func measure(reps int, fs ...func() error) ([]time.Duration, error) {
	best := make([]time.Duration, len(fs))
	start := time.Now()
	for round := 0; round < reps || time.Since(start) < minMeasure; round++ {
		for k := range fs {
			i := (round + k) % len(fs)
			t0 := time.Now()
			if err := fs[i](); err != nil {
				return nil, err
			}
			if el := time.Since(t0); round == 0 || el < best[i] {
				best[i] = el
			}
		}
	}
	return best, nil
}

// noErr adapts an operation that cannot fail to measure's signature.
func noErr(f func()) func() error {
	return func() error { f(); return nil }
}
