package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"time"

	"iguard"
	"iguard/internal/netpkt"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
)

// decisions is what the OnDecision observer records, indexed by seq.
// With one ingest lane, seq is the packet's position in the capture.
// Each slot is written by exactly one shard goroutine and read only
// after Server.Close has joined them.
type decisions struct {
	code  []uint8  // 0 = undecided, else encodeDecision
	shard []uint16 // the shard that decided the packet
	at    []int64  // decision time, ns since base, when timed
	base  time.Time
	timed bool
}

func newDecisions(n int) *decisions {
	return &decisions{code: make([]uint8, n), shard: make([]uint16, n)}
}

// reset clears the record before a replay. Called before the server is
// built, so the shard goroutines see the new base.
func (d *decisions) reset(timed bool) {
	clear(d.code)
	d.timed = timed
	if timed && d.at == nil {
		d.at = make([]int64, len(d.code))
	}
	d.base = time.Now()
}

func (d *decisions) since() int64 { return int64(time.Since(d.base)) }

func (d *decisions) observe(shard int, _ uint32, seq uint64, _ *netpkt.Packet, dec switchsim.Decision) {
	d.code[seq] = encodeDecision(dec)
	d.shard[seq] = uint16(shard)
	if d.timed {
		d.at[seq] = d.since()
	}
}

// encodeDecision packs the decided flag, Path, Predicted and Dropped.
func encodeDecision(dec switchsim.Decision) uint8 {
	c := uint8(1) | uint8(dec.Path&7)<<1 | uint8(dec.Predicted&1)<<4
	if dec.Dropped {
		c |= 1 << 5
	}
	return c
}

func codeDropped(c uint8) bool { return c&(1<<5) != 0 }

// hashDecisions hashes (lane, seq, Path, Predicted, Dropped) of every
// decided packet among the first n, in seq order.
func hashDecisions(code []uint8, n int) uint64 {
	h := fnv.New64a()
	var rec [14]byte // lane is always 0: one producer lane
	for seq := 0; seq < n; seq++ {
		c := code[seq]
		if c == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(rec[4:12], uint64(seq))
		rec[12] = (c >> 1) & 7
		rec[13] = c >> 4
		h.Write(rec[:])
	}
	return h.Sum64()
}

// outcome counts what happened to the first n packets of a capture.
type outcome struct {
	offered, decided             int
	malOffered, malDropped       int
	benignOffered, benignDropped int
}

func countOutcome(c *capture, code []uint8, n int) outcome {
	o := outcome{offered: n}
	for seq := 0; seq < n; seq++ {
		mal := c.malicious[seq]
		if mal {
			o.malOffered++
		} else {
			o.benignOffered++
		}
		if code[seq] == 0 {
			continue
		}
		o.decided++
		if codeDropped(code[seq]) {
			if mal {
				o.malDropped++
			} else {
				o.benignDropped++
			}
		}
	}
	return o
}

// rep is the result of one replay through a fresh server.
type rep struct {
	wall, cpu time.Duration
	drain     time.Duration // pumpReplay: Flush plus Close after the last ingest
	out       outcome
	hash      uint64
	stats     serve.Stats
	heapBytes int64 // live heap reachable only through the server
	// Paced replays: when packet i was due is startNs + i*intervalNs
	// (ns since the decisions' base), and late[i] is how far behind
	// that the generator handed it off.
	startNs    int64
	intervalNs float64
	late       []int64
}

// due is when packet i of a paced replay was due, in ns since the
// decisions' base.
func (r rep) due(i int) int64 { return r.startNs + int64(float64(i)*r.intervalNs) }

// retainedHeap closes the measurement of one replay: it reads the live
// heap after a GC with the server reachable and again with it dropped.
// The difference is the state the server holds; the benchmark's own
// buffers and the capture are live in both readings and cancel out.
func retainedHeap(det *iguard.Detector, srv *serve.Server) int64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(srv)
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(det)
	return int64(with.HeapAlloc) - int64(without.HeapAlloc)
}

// replayClosed replays the whole capture as fast as it goes through
// Server.Replay, the path iguard-serve takes for a capture file.
func replayClosed(m *model, c *capture, dec *decisions) (rep, error) {
	rd, err := netpkt.NewPcapReader(bytes.NewReader(c.pcap))
	if err != nil {
		return rep{}, err
	}
	dec.reset(false)
	det, srv, _, err := setup(m, serveConfig(dec))
	if err != nil {
		return rep{}, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	_, _, rerr := srv.Replay(context.Background(), serve.PcapSource{R: rd})
	cerr := srv.Close()
	r := rep{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if rerr != nil {
		return rep{}, rerr
	}
	if cerr != nil {
		return rep{}, cerr
	}
	r.stats = srv.Stats()
	r.out = countOutcome(c, dec.code, c.packets)
	r.hash = hashDecisions(dec.code, c.packets)
	r.heapBytes = retainedHeap(det, srv)
	return r, nil
}

// pumpOpts selects how pumpReplay offers packets.
type pumpOpts struct {
	limit int     // offer the first limit packets of the capture
	rate  float64 // packets per wall-clock second; 0 = closed loop
	rec   *recorder
	hand  []int64 // per-seq hand-off time (ns since base), when non-nil
}

// pumpReplay replays a capture prefix through a fresh server with the
// benchmark's own read loop, which is Server.Replay's loop plus an
// optional pacer and spans around each call into the library. The
// pacer is open loop: packet i is due at start + i/rate whatever the
// server does, the pacer sleeps until the next packet is due, and then
// hands off every packet due by then, one read buffer at a time.
func pumpReplay(m *model, c *capture, dec *decisions, o pumpOpts) (rep, error) {
	rd, err := netpkt.NewPcapReader(bytes.NewReader(c.pcap))
	if err != nil {
		return rep{}, err
	}
	src := serve.PcapSource{R: rd}
	dec.reset(o.rate > 0 || o.hand != nil)
	det, srv, _, err := setup(m, serveConfig(dec))
	if err != nil {
		return rep{}, err
	}
	// Not deferred: a deferred Close would keep the server reachable
	// through retainedHeap's second reading.
	fail := func(err error) (rep, error) {
		_ = srv.Close() // the replay's own error is the one to report
		return rep{}, err
	}
	buf := make([]netpkt.Packet, iguard.DefaultServeConfig().BatchSize)
	r := rep{}
	if o.rate > 0 {
		r.intervalNs = 1e9 / o.rate
		r.late = make([]int64, 0, o.limit)
	}
	begin := func(name string, chunk int) int32 {
		if o.rec == nil {
			return 0
		}
		return o.rec.begin(name, chunk)
	}
	end := func(id int32) {
		if o.rec != nil {
			o.rec.end(id)
		}
	}

	root := begin("replay", -1)
	cpu0 := cpuTime()
	r.startNs = dec.since()
	sent := 0
	for chunk := 0; sent < o.limit; chunk++ {
		n := min(len(buf), o.limit-sent)
		if o.rate > 0 {
			now := dec.since()
			for now < r.due(sent) {
				sleepFor(time.Duration(r.due(sent) - now))
				now = dec.since()
			}
			ready := int(float64(now-r.startNs)/r.intervalNs) + 1 - sent
			n = max(1, min(n, ready))
		}
		id := begin("netpkt.decode", chunk)
		k, rerr := src.NextBatch(buf[:n])
		end(id)
		if k > 0 {
			h := dec.since()
			for j := sent; j < sent+k; j++ {
				if o.hand != nil {
					o.hand[j] = h
				}
				if o.rate > 0 {
					r.late = append(r.late, h-r.due(j))
				}
			}
			id := begin("serve.ingest", chunk)
			_, _, ierr := srv.IngestBatch(buf[:k])
			end(id)
			if ierr != nil {
				return fail(ierr)
			}
			sent += k
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(rerr)
		}
	}
	drain := dec.since()
	id := begin("serve.flush", -1)
	ferr := srv.Flush()
	end(id)
	id = begin("serve.close", -1)
	cerr := srv.Close()
	end(id)
	r.drain = time.Duration(dec.since() - drain)
	r.wall = time.Duration(dec.since() - r.startNs)
	r.cpu = cpuTime() - cpu0
	end(root)
	if ferr != nil {
		return rep{}, ferr
	}
	if cerr != nil {
		return rep{}, cerr
	}
	r.stats = srv.Stats()
	r.out = countOutcome(c, dec.code, sent)
	r.hash = hashDecisions(dec.code, sent)
	r.heapBytes = retainedHeap(det, srv)
	return r, nil
}

// latencies holds the due-to-decision latencies (ns) of paced replays:
// the p50 and p90 of each window of latWindow packets, and the pooled
// sample.
type latencies struct {
	p50, p90 []float64
	all      []int64 // every decided packet's latency
	misses   int     // packets offered and never decided
}

// add takes a paced replay's latencies from the decisions it left. A
// replay shorter than two windows is one window; otherwise the packets
// after the last whole window join it.
func (l *latencies) add(r rep, dec *decisions) {
	n := r.out.offered
	for lo := 0; lo < n; {
		hi := lo + latWindow
		if n-hi < latWindow {
			hi = n
		}
		var win []int64
		misses := 0
		for seq := lo; seq < hi; seq++ {
			if dec.code[seq] == 0 {
				misses++
				continue
			}
			win = append(win, dec.at[seq]-r.due(seq))
		}
		l.all = append(l.all, win...)
		l.misses += misses
		slices.Sort(win)
		p50, ok50 := percentile(win, misses, 0.5)
		p90, ok90 := percentile(win, misses, 0.9)
		if ok50 && ok90 {
			l.p50 = append(l.p50, p50)
			l.p90 = append(l.p90, p90)
		}
		lo = hi
	}
}

// decodeAllocs is the heap bytes the pcap decode path allocates per
// packet over the first n packets of the capture.
func decodeAllocs(c *capture, n int) (float64, error) {
	rd, err := netpkt.NewPcapReader(bytes.NewReader(c.pcap))
	if err != nil {
		return 0, err
	}
	src := serve.PcapSource{R: rd}
	buf := make([]netpkt.Packet, iguard.DefaultServeConfig().BatchSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read := 0
	for read < n {
		k, err := src.NextBatch(buf[:min(len(buf), n-read)])
		read += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(max(1, read)), nil
}
