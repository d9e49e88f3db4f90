package main

import (
	"math"
	"testing"
	"time"
)

// The tail is the highest percentile (up to the one asked for) that keeps
// at least minBeyond samples above it, with the count reported.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantLevel float64
	}{
		{1000, 99}, {2000, 99}, {500, 98}, {100, 90}, {40, 75}, {21, 52.3}, {20, 50}, {5, 50}, {1, 50},
	} {
		if got := tailLevel(tc.n, 99); math.Abs(got-tc.wantLevel) > 1e-9 {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.wantLevel)
		}
	}
	for n := 21; n <= 3000; n += 7 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		d := summarize(s, 99)
		if d.N != n {
			t.Fatalf("n=%d: count %d", n, d.N)
		}
		if d.Beyond < minBeyond {
			t.Fatalf("n=%d: p%.1f has %d samples beyond, want >= %d", n, d.TailPct, d.Beyond, minBeyond)
		}
		// The value is the nearest-rank percentile: exactly Beyond
		// samples exceed it.
		above := 0
		for _, v := range s {
			if v > d.Tail {
				above++
			}
		}
		if above != d.Beyond {
			t.Fatalf("n=%d: %d samples above the tail, reported %d", n, above, d.Beyond)
		}
		// Highest: a tenth of a percent higher would leave fewer than
		// minBeyond beyond, unless the level is already the requested one.
		if d.TailPct < 99 {
			k := int(math.Ceil((d.TailPct + 0.1) / 100 * float64(n)))
			if n-k >= minBeyond {
				t.Fatalf("n=%d: p%.1f reported but p%.1f still has %d beyond", n, d.TailPct, d.TailPct+0.1, n-k)
			}
		}
	}
}

func TestSummarizeLeavesInputAndMedian(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	d := summarize(s, 99)
	if d.P50 != 3 || d.TailPct != 50 || d.Tail != 3 || d.Min != 1 || d.Max != 5 || d.Mean != 3 {
		t.Fatalf("summarize = %+v", d)
	}
	if s[0] != 5 || s[1] != 1 || s[4] != 3 {
		t.Fatalf("input reordered: %v", s)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// A server stall must show in latency timed from each request's due time
// and in the generator's lateness, not vanish into a closed loop's
// send-to-answer time.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate  = 200.0 // one request every 5 ms
		n     = 80
		stall = 150 * time.Millisecond
	)
	stallFrom := time.Now().Add(100 * time.Millisecond)
	stallTo := stallFrom.Add(stall)
	do := func(i int) error {
		now := time.Now()
		if !now.Before(stallFrom) && now.Before(stallTo) {
			time.Sleep(time.Until(stallTo)) // the server answers nothing until the stall ends
		}
		time.Sleep(200 * time.Microsecond)
		return nil
	}
	res := openLoop(rate, n, 2, do)
	var maxLate, maxLat time.Duration
	for _, r := range res {
		maxLate = max(maxLate, r.Late)
		maxLat = max(maxLat, r.Latency)
	}
	// Requests due during the stall wait for it: the ones sent after it
	// ended are late by up to the stall, and their latency from due time
	// carries it even though their own send-to-answer time is short.
	if maxLate < stall/2 {
		t.Errorf("max lateness %v, want at least %v", maxLate, stall/2)
	}
	if maxLat < stall*3/4 {
		t.Errorf("max latency from due time %v, want at least %v", maxLat, stall*3/4)
	}
	stalled := 0
	for _, r := range res {
		if r.Late > 20*time.Millisecond && r.Latency-r.Late < 20*time.Millisecond {
			stalled++
		}
	}
	if stalled < 5 {
		t.Errorf("%d requests show the stall only as lateness, want >= 5 (the stall spans ~30 due times)", stalled)
	}
	ls := summarizeLoad(res)
	if ls.failed != 0 || ls.lat.N != n {
		t.Fatalf("summary %+v", ls)
	}
	if ls.lat.Tail < ms(stall/4) {
		t.Errorf("tail latency %.1f ms does not show the %v stall", ls.lat.Tail, stall)
	}
}

// A failed request counts as missing the latency limit.
func TestFailedRequestMissesLimit(t *testing.T) {
	res := make([]reqResult, 40)
	for i := range res {
		res[i] = reqResult{Latency: time.Millisecond}
	}
	ok := summarizeLoad(res)
	if !ok.passes() {
		t.Fatalf("fast, error-free rung failed: %+v", ok)
	}
	res[3].Err = errMismatch
	bad := summarizeLoad(res)
	if bad.failed != 1 || bad.passes() {
		t.Fatalf("a failed request must fail the rung: %+v", bad)
	}
}

func TestMaxRateClimbsAndDescends(t *testing.T) {
	capacity := 100.0
	probe := func(rate float64) bool { return rate <= capacity }
	for _, start := range []int{rungBelow(50), rungBelow(90), rungBelow(100), rungBelow(130), rungBelow(200)} {
		got, tried, err := maxRate(start, probe)
		if err != nil {
			t.Fatalf("start %.1f: %v", rung(start), err)
		}
		if got > capacity || got*ladderStep <= capacity {
			t.Errorf("start %.1f: max rate %.2f, want the highest rung <= %.0f (tried %v)", rung(start), got, capacity, tried)
		}
	}
	// Too far below: the probes run out before the first failing rung.
	if _, tried, err := maxRate(0, probe); err == nil || len(tried) != maxRungs {
		t.Errorf("start at rung 0 bracketed capacity %v in %d rungs without error", capacity, len(tried))
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "md.Step", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "core.Compute", Start: 2 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Name: "x", Start: 5 * ms, End: 8 * ms}, // overlaps the first child
		{ID: 4, Name: "md.Step", Start: 10 * ms, End: 13 * ms},
	}
	got := selfTimes(spans, "md.Step")
	if len(got) != 2 || got[0] != 4*ms || got[1] != 3*ms {
		t.Fatalf("self times %v, want [4ms 3ms]", got)
	}
	tr := NewTracer(1)
	id := tr.Begin("a", 0)
	tr.End(id)
	var nilTr *Tracer
	if nilTr.Begin("a", 0) != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	if s := tr.Spans(); len(s) != 1 || s[0].Name != "a" || s[0].Run != 1 || s[0].End < s[0].Start {
		t.Fatalf("spans %+v", s)
	}
}
