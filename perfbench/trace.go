package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the ID of the span that caused it (0 for a root);
// Run identifies the workload run the span belongs to.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *Tracer records nothing, so untraced code paths pay only a
// nil check.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []Span
}

// NewTracer starts a tracer whose span times are offsets from now.
func NewTracer(run int) *Tracer {
	return &Tracer{epoch: time.Now(), run: run, spans: make([]Span, 0, 4096)}
}

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already-measured span (for calls timed elsewhere, such
// as a replayed neighbor build) and returns its ID.
func (t *Tracer) Add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: s, End: s + d})
	return id
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its direct children.
func selfTimes(spans []Span, name string) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.Dur()-covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations of every span named name, in ms.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}
