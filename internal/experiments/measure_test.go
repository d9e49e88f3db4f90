package experiments

import (
	"errors"
	"testing"
	"time"
)

func TestMeasure(t *testing.T) {
	t.Run("rotates-and-samples", func(t *testing.T) {
		const n, reps = 3, 4
		var order []int
		fs := make([]func() error, n)
		for i := range fs {
			fs[i] = func() error { order = append(order, i); return nil }
		}
		start := time.Now()
		if _, err := measure(reps, fs...); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < minMeasure {
			t.Errorf("measure returned after %v, before the %v floor", el, minMeasure)
		}
		if len(order)%n != 0 {
			t.Fatalf("%d calls is not a whole number of %d-call rounds", len(order), n)
		}
		if rounds := len(order) / n; rounds < reps {
			t.Errorf("%d rounds, want at least reps = %d", rounds, reps)
		}
		for r := 0; r < len(order)/n; r++ {
			for k := 0; k < n; k++ {
				if got, want := order[r*n+k], (r+k)%n; got != want {
					t.Fatalf("round %d call %d ran alternative %d, want %d", r, k, got, want)
				}
			}
		}
	})

	t.Run("reps-beyond-floor", func(t *testing.T) {
		// Alternatives slow enough that reps, not the floor, sets the
		// sample count.
		const reps = 4
		calls := make([]int, 2)
		fs := make([]func() error, len(calls))
		for i := range fs {
			fs[i] = func() error { calls[i]++; time.Sleep(minMeasure / 4); return nil }
		}
		if _, err := measure(reps, fs...); err != nil {
			t.Fatal(err)
		}
		for i, c := range calls {
			if c < reps {
				t.Errorf("alternative %d sampled %d times, want at least %d", i, c, reps)
			}
		}
	})

	t.Run("error-stops-rounds", func(t *testing.T) {
		boom := errors.New("boom")
		okCalls, failCalls := 0, 0
		ok := func() error { okCalls++; return nil }
		fail := func() error {
			if failCalls++; failCalls == 3 {
				return boom
			}
			return nil
		}
		got, err := measure(100, ok, fail)
		if err != boom {
			t.Fatalf("err = %v, want the alternative's error unchanged", err)
		}
		if got != nil {
			t.Errorf("times = %v on error, want nil", got)
		}
		// Rounds: (ok, fail), (fail, ok), (ok, fail=boom).
		if okCalls != 3 || failCalls != 3 {
			t.Errorf("ok %d / fail %d calls, want 3 / 3: no call after the error", okCalls, failCalls)
		}
	})

	t.Run("slower-reports-larger", func(t *testing.T) {
		fast := func() error { return nil }
		slow := func() error { time.Sleep(2 * time.Millisecond); return nil }
		got, err := measure(3, slow, fast)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] < 2*time.Millisecond || got[0] <= got[1] {
			t.Errorf("slow %v, fast %v: want slow >= 2ms and above fast", got[0], got[1])
		}
	})
}
