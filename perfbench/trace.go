package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one session, kernel round
// or experiment cell share a Group; Parent is the enclosing span's ID (0 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Group  int64  `json:"group"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled tracer: begin returns a zero handle and end does nothing, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span.
type handle struct {
	id, group, parent int64
	name              string
	start             time.Time
}

// begin opens a span named name in group under parent (a zero parent makes
// a root). The returned handle's id is the parent for nested calls.
func (t *tracer) begin(name string, group int64, parent handle) handle {
	if t == nil {
		return handle{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if group == 0 {
		group = parent.group
	}
	return handle{id: id, group: group, parent: parent.id, name: name, start: time.Now()}
}

// end closes h and records it.
func (t *tracer) end(h handle) {
	if t == nil || h.id == 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: h.id, Group: h.group, Parent: h.parent, Name: h.name,
		Start: int64(h.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// newGroup allocates a group ID for one session, kernel round or cell.
func (t *tracer) newGroup() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one span name's total and self time over a trace.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the spans' durations and their self time:
// a span's duration minus the part of its interval that its children cover
// (overlapping children count once; a child's time outside its parent does
// not count against the parent). Sorted by self time, largest first.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		dur := s.End - s.Start
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeTrace writes the spans and the host facts as one JSON document.
func writeTrace(path string, facts hostFacts, spans []span, layers []layerTime) error {
	data, err := json.Marshal(struct {
		Host   hostFacts   `json:"host"`
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{facts, layers, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
