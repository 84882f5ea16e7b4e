package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder's base instant; parent is the index
// of the enclosing span (-1 for a root) and chunk the ingest chunk the
// span worked on (-1 when it belongs to none), so the decode and
// ingest spans of one chunk share an ID.
type span struct {
	name       string
	parent     int32
	chunk      int32
	start, end int64
}

// recorder keeps spans in memory for one goroutine. Spans nest: begin
// makes the innermost open span the parent of the new one. now is the
// recorder's clock in nanoseconds.
type recorder struct {
	clock string
	now   func() int64
	spans []span
	open  []int32
}

// newWallRecorder times spans on the monotonic wall clock.
func newWallRecorder() *recorder {
	base := time.Now()
	return &recorder{clock: "wall", now: func() int64 { return int64(time.Since(base)) }, spans: make([]span, 0, 1<<16)}
}

// newThreadCPURecorder times spans on the calling thread's CPU clock,
// so a span does not count time its goroutine spent blocked or
// descheduled. The caller must hold runtime.LockOSThread while the
// recorder is in use.
func newThreadCPURecorder() *recorder {
	return &recorder{clock: "thread_cpu", now: threadCPUTime, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, chunk int) int32 {
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, chunk: int32(chunk), start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int32) {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = r.now()
}

// layerTime is the self time and span count one span name accumulated.
type layerTime struct {
	self  int64 // total self time, ns
	count int
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval covered by its direct children. Child
// intervals are clipped to the parent and merged first, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		covered := coveredBy(spans, children[int32(i)], s.start, s.end)
		lt := out[s.name]
		lt.self += s.end - s.start - covered
		lt.count++
		out[s.name] = lt
	}
	return out
}

// coveredBy returns how much of [lo, hi) the union of the given spans
// covers.
func coveredBy(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s, e := spans[id].start, spans[id].end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return covered
}

// writeSpans writes the recorders' spans as tab-separated lines:
// clock, index, name, parent, chunk, start ns, end ns. Indexes and
// parents are per recorder.
func writeSpans(w io.Writer, recs ...*recorder) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "clock\tid\tname\tparent\tchunk\tstart_ns\tend_ns")
	for _, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n", r.clock, i, s.name, s.parent, s.chunk, s.start, s.end)
		}
	}
	return bw.Flush()
}
