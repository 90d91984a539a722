package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module of the program.
// Parent is the id of the span that caused it (0 for a root); Track is the
// rank whose goroutine made the call, or -1 for the driver goroutine.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Track  int    `json:"track"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, so untraced runs
// pass nil and pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Track: track, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already finished call.
func (t *tracer) add(name string, parent, track int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Track: track,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// nameTimes aggregates the spans of one name.
type nameTimes struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// selfTimes returns, per span name, the number of spans, their summed
// duration, and their summed self time: each span's duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other (ranks run concurrently), so the covered part is the length of
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[string]nameTimes {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]nameTimes{}
	for _, s := range spans {
		nt := out[s.Name]
		nt.Count++
		nt.TotalNS += s.End - s.Start
		nt.SelfNS += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = nt
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := make([][2]int64, 0, len(ivs))
	for _, c := range ivs {
		a, b := max(c[0], lo), min(c[1], hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curA, curB, open = c[0], c[1], true
		case c[0] <= curB:
			curB = max(curB, c[1])
		default:
			total += curB - curA
			curA, curB = c[0], c[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the spans, their per-name self times and the run's
// provenance as one JSON file.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Provenance provenance           `json:"provenance"`
		Self       map[string]nameTimes `json:"self_times"`
		Spans      []span               `json:"spans"`
	}{prov, selfTimes(t.spans), t.spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
