package main

import "testing"

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// a span's self time is its duration minus the union of its direct
// children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {name: "root", parent: -1, start: 0, end: 100},
		1: {name: "a", parent: 0, start: 10, end: 30},
		2: {name: "b", parent: 0, start: 25, end: 50},    // overlaps a: root's children cover [10,50)
		3: {name: "c", parent: 1, start: 12, end: 18},    // grandchild: counts against a, not root
		4: {name: "a", parent: 0, start: 90, end: 120},   // runs past root's end: covers only [90,100)
		5: {name: "d", parent: -1, start: 200, end: 230}, // second root, no children
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {self: 100 - 40 - 10, count: 1},
		"a":    {self: (20 - 6) + 30, count: 2},
		"b":    {self: 25, count: 1},
		"c":    {self: 6, count: 1},
		"d":    {self: 30, count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

// TestRecorderNesting checks that begin makes the innermost open span
// the parent and that end stamps the recorder's clock.
func TestRecorderNesting(t *testing.T) {
	clock := int64(0)
	r := &recorder{now: func() int64 { clock += 10; return clock }}
	root := r.begin("root", -1)
	a := r.begin("a", 7)
	r.end(a)
	b := r.begin("b", 7)
	r.end(b)
	r.end(root)
	want := []span{
		{name: "root", parent: -1, chunk: -1, start: 10, end: 60},
		{name: "a", parent: 0, chunk: 7, start: 20, end: 30},
		{name: "b", parent: 0, chunk: 7, start: 40, end: 50},
	}
	for i, w := range want {
		if r.spans[i] != w {
			t.Errorf("span %d: got %+v, want %+v", i, r.spans[i], w)
		}
	}
	if lt := selfTimes(r.spans)["root"]; lt.self != 30 {
		t.Errorf("root self = %d, want 30", lt.self)
	}
}
