package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		// Two overlapping children cover [10, 50]: 40 units, counted once.
		{ID: 2, Parent: 1, Name: "launch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "launch", Start: 30, End: 50},
		// A child running past its parent only covers the parent's part.
		{ID: 4, Parent: 1, Name: "close", Start: 90, End: 130},
		// A grandchild counts against its own parent, not the root.
		{ID: 5, Parent: 2, Name: "fsync", Start: 15, End: 25},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]struct {
		count       int
		total, self float64
	}{
		"session": {1, 100, 100 - 40 - 10},
		"launch":  {2, 30 + 20, (30 - 10) + 20},
		"close":   {1, 40, 40},
		"fsync":   {1, 10, 10},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || !near(g.Total, w.total*1e-9) || !near(g.Self, w.self*1e-9) {
			t.Errorf("%s: count %d total %g self %g; want %d %g %g", name, g.Count, g.Total, g.Self, w.count, w.total*1e-9, w.self*1e-9)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-15 }

func TestCoveredDisjointAndNested(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 60, End: 70}, {Start: 0, End: 10}, {Start: 5, End: 8}, {Start: 200, End: 300}}
	if c := covered(p, kids); c != 20 {
		t.Errorf("covered = %d, want 20", c)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", tr.newGroup(), handle{})
	tr.end(h)
	if len(tr.snapshot()) != 0 {
		t.Error("a nil tracer recorded spans")
	}
}

func TestTracerGroupsAndParents(t *testing.T) {
	tr := newTracer()
	g := tr.newGroup()
	root := tr.begin("session", g, handle{})
	child := tr.begin("launch", 0, root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != r.ID || c.Group != g || r.Group != g || r.Parent != 0 {
		t.Errorf("spans %+v %+v: want the child under the root, both in group %d", c, r, g)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Errorf("child [%d, %d] outside root [%d, %d]", c.Start, c.End, r.Start, r.End)
	}
}
