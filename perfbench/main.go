// Command perfbench is the repository's end-to-end benchmark. It runs
// the daemon's real path in process — iguard.Train, Save, Load,
// NewServer at DefaultServeConfig, Server.Replay of pcap bytes — on one
// of three workloads, checks the outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run also replays once with spans around every call into the
// library, replays again on one goroutine to time the layers the
// served path runs on shard goroutines, and reports per-layer metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload replay-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"iguard/internal/serve"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	spec captureSpec
	// paced workloads are offered open loop at liveRate; the others
	// replay closed loop. Every workload runs under the Block policy.
	paced bool
}

var workloads = []workload{
	{name: "replay-mix", spec: mixSpec},
	{name: "flow-churn", spec: churnSpec},
	{name: "paced-live", spec: mixSpec, paced: true},
}

// liveRate is the open-loop offered rate in packets per second: well
// below the closed-loop capacity of a 2-CPU host (1.2–2.1 Mpps), as a
// live capture would run.
//
// The open-loop replays run under Block, not Drop. Under Drop a 2-CPU
// host shed 0.1–0.6% of the packets at this rate (0.5–7% at 0.25
// Mpps), a different count on every run of one seed: in the capture's
// sparse tail every batch holds one packet, so a shard's mailbox of 16
// batches buffers a fraction of a millisecond and any scheduling stall
// overflows it. A benchmark's operations must not fail at random, so
// under Block such a stall shows up as latency instead.
const liveRate = 100_000

// latWindow is how many consecutive packets of an open-loop replay
// make one latency window, half a second at liveRate. A latency
// percentile is the median of its per-window values, so a stall of the
// host that hits a few windows does not move it.
const latWindow = liveRate / 2

// latSegments is how many open-loop replays make the latency phase of
// a closed-loop workload.
const latSegments = 3

// setupRuns is how many times each run times Load plus NewServer.
const setupRuns = 15

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: replay-mix, flow-churn or paced-live")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same capture")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory the span trace is written to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return usage(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 1:
		return usage(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	case *trace != 0 && *trace != 1:
		return usage(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	b := &bench{w: *w, seed: *seed, budget: time.Duration(*seconds) * time.Second, chk: &checks{}}
	if err := b.prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var err error
	if *trace == 1 {
		err = b.measureLayers(*out)
	} else {
		err = b.measureEndToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.report()
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	flag.Usage()
	return 2
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// bench is one run: a workload, its capture and model, the checks made
// so far and the metrics to print.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	chk    *checks
	cap    *capture
	model  *model
	dec    *decisions

	metrics   []metric
	attempted int
	failed    int
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

func (b *bench) add(name, unit string, v float64, note string) {
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// count books a replay's packets into the result's attempted and
// failed totals; a packet offered and never decided has failed.
func (b *bench) count(r rep) {
	b.attempted += r.out.offered
	b.failed += r.out.offered - r.out.decided
}

func (b *bench) prepare() error {
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	cfg := serveConfig(nil)
	rate, pacer := "max", "none"
	if b.w.paced {
		rate, pacer = fmt.Sprintf("%.2fMpps", liveRate/1e6), "nanosleep"
	}
	fmt.Printf("config: shards=%d lanes=%d batch=%d batch_flush=%v sweep_every=%v policy=%v offered_rate=%s pacer=%s\n",
		cfg.Shards, cfg.Producers, cfg.BatchSize, serveBatchFlush, cfg.SweepEvery, cfg.Policy, rate, pacer)
	if !b.w.paced {
		fmt.Printf("config: latency phase offered_rate=%.2fMpps pacer=nanosleep policy=%v\n", liveRate/1e6, cfg.Policy)
	}

	progress("building the %s capture for seed %d", b.w.name, b.seed)
	c, err := buildCapture(b.w.spec, b.seed)
	if err != nil {
		return err
	}
	b.cap = c
	b.dec = newDecisions(c.packets)
	fmt.Printf("workload: name=%s seed=%d packets=%d flows=%d malicious_flows=%d malicious_pkt_share=%.4f trace_s=%.1f trace_pps=%.0f\n",
		b.w.name, b.seed, c.packets, c.flows, c.malFlows, float64(c.malPkts)/float64(c.packets), c.span.Seconds(), c.tracePPS())

	progress("training %d times on %d benign flows", trainRuns, trainFlows)
	m, err := trainModel(b.chk)
	if err != nil {
		return err
	}
	b.model = m
	fmt.Printf("model: rules=%d compiled_rules=%d sha256=%s train_s=%v\n", m.rules, m.compiled, m.hash, m.trainS)
	return nil
}

// pacedLimit is how many packets a paced replay offers to fill share
// of the run's budget at liveRate; at most the whole capture.
func (b *bench) pacedLimit(share float64) int {
	return min(b.cap.packets, max(1, int(share*b.budget.Seconds()*liveRate)))
}

// measureEndToEnd measures the end-to-end metrics with tracing off.
func (b *bench) measureEndToEnd() error {
	setupS, err := b.timeSetups()
	if err != nil {
		return err
	}
	b.add("train_s", "s", median(b.model.trainS), fmt.Sprintf("median of %d", len(b.model.trainS)))
	b.add("setup_s", "s", median(setupS), fmt.Sprintf("median of %d", len(setupS)))

	var reps []rep // the replays throughput, CPU and state come from
	var lat latencies
	if b.w.paced {
		// Paced replays of the whole capture (or of a prefix, on a short
		// budget) fill 90% of the budget.
		limit := b.pacedLimit(0.9)
		passes := max(1, int(0.9*b.budget.Seconds()*liveRate)/limit)
		for i := 0; i < passes; i++ {
			progress("paced replay %d of %d: %d packets at %.2f Mpps", i+1, passes, limit, liveRate/1e6)
			r, err := pumpReplay(b.model, b.cap, b.dec, pumpOpts{limit: limit, rate: liveRate})
			if err != nil {
				return err
			}
			b.checkServed("paced", r)
			lat.add(r, b.dec)
			reps = append(reps, r)
		}
	} else {
		// Closed-loop replays fill 60% of the budget. Open-loop replays
		// of a capture prefix at liveRate, the latency phase, fill 30%:
		// latSegments of them, each after its share of the closed-loop
		// replays, so that a slow spell of the host covers few of the
		// latency windows.
		latLimit := b.pacedLimit(0.3 / latSegments)
		var firstHash, prefixHash uint64
		var closed time.Duration
		for seg := 1; seg <= latSegments; seg++ {
			for len(reps) < seg || closed < b.budget*6/10*time.Duration(seg)/latSegments {
				progress("closed-loop replay %d", len(reps)+1)
				t0 := time.Now()
				r, err := replayClosed(b.model, b.cap, b.dec)
				if err != nil {
					return err
				}
				closed += time.Since(t0)
				if len(reps) == 0 {
					firstHash, prefixHash = r.hash, hashDecisions(b.dec.code, latLimit)
				}
				b.checkServed("closed", r)
				b.chk.add("replays_identical", r.hash == firstHash, "replay %d hash %016x, replay 1 %016x", len(reps)+1, r.hash, firstHash)
				reps = append(reps, r)
			}
			progress("latency segment %d of %d: %d packets at %.2f Mpps", seg, latSegments, latLimit, liveRate/1e6)
			r, err := pumpReplay(b.model, b.cap, b.dec, pumpOpts{limit: latLimit, rate: liveRate})
			if err != nil {
				return err
			}
			b.checkServed("latency_phase", r)
			b.chk.add("latency_phase_matches_closed_loop", r.hash == prefixHash,
				"paced prefix hash %016x, closed-loop prefix hash %016x", r.hash, prefixHash)
			b.count(r)
			lat.add(r, b.dec)
		}
	}

	var cpu, mpps, heap, malPass, benignDrop []float64
	for i, r := range reps {
		b.count(r)
		o := r.out
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/float64(o.offered))
		mpps = append(mpps, float64(o.decided)/r.wall.Seconds()/1e6)
		heap = append(heap, float64(r.heapBytes)/1e6)
		// The share of malicious packets forwarded rather than dropped: a
		// drop share would read 0 on flow-churn, whose scan flows end
		// before their digest blacklists them.
		malPass = append(malPass, 1-float64(o.malDropped)/float64(max(1, o.malOffered)))
		benignDrop = append(benignDrop, float64(o.benignDropped)/float64(max(1, o.benignOffered)))
		fmt.Printf("replay %d: wall_s=%.4f cpu_ns_per_pkt=%.1f mpps=%.4f state_mb=%.3f decided=%d/%d\n",
			i+1, r.wall.Seconds(), cpu[i], mpps[i], heap[i], r.out.decided, r.out.offered)
	}
	printPaths(reps[0].stats)
	n := fmt.Sprintf("median of %d replays", len(reps))
	b.add("cpu_ns_per_pkt", "ns", median(cpu), n)
	b.add("state_mb", "MB", median(heap), n)
	b.add("mpps", "Mpps", median(mpps), n+"; decided per wall second, drain included")
	o := reps[0].out
	b.add("mal_pass_frac", "frac", median(malPass), fmt.Sprintf("%s; replay 1: %d of %d malicious packets dropped", n, o.malDropped, o.malOffered))
	b.add("benign_drop_frac", "frac", median(benignDrop), fmt.Sprintf("%s; replay 1: %d of %d benign packets dropped", n, o.benignDropped, o.benignOffered))

	if len(lat.p50) == 0 {
		return fmt.Errorf("latency: %d samples are too few to report a percentile", len(lat.all)+lat.misses)
	}
	note := fmt.Sprintf("median of %d windows of %d packets; %d decided, %d never decided, open loop at %.2f Mpps",
		len(lat.p50), latWindow, len(lat.all), lat.misses, liveRate/1e6)
	b.add("lat_p50_us", "us", finiteUs(median(lat.p50)), note)
	b.add("lat_p90_us", "us", finiteUs(median(lat.p90)), note)
	fmt.Print("latency: window p90s us:")
	for _, v := range lat.p90 {
		fmt.Printf(" %.0f", finiteUs(v))
	}
	fmt.Println()
	slices.Sort(lat.all)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if v, ok := percentile(lat.all, lat.misses, q); ok {
			fmt.Printf("latency: pooled p%g %.1f us (n=%d)\n", q*100, finiteUs(v), len(lat.all)+lat.misses)
		}
	}
	return nil
}

// finiteUs converts a latency in ns to µs. A percentile that lands on a
// packet never decided is +Inf; it is reported as latencyMissUs.
func finiteUs(ns float64) float64 {
	if math.IsInf(ns, 1) {
		return latencyMissUs
	}
	return ns / 1e3
}

// latencyMissUs stands for the latency of a packet that was never
// decided: one minute, longer than any run.
const latencyMissUs = 60e6

// pathNames names switchsim's Fig. 4 paths in Path order.
var pathNames = []string{"red", "brown", "blue", "orange", "purple", "green"}

// printPaths prints the share of decided packets on each path, a
// property of the workload.
func printPaths(st serve.Stats) {
	fmt.Print("paths:")
	for p, name := range pathNames {
		fmt.Printf(" %s=%.4f", name, float64(st.PathCounts[p])/float64(max(1, st.Packets)))
	}
	fmt.Println()
}

// timeSetups times Load plus NewServer setupRuns times.
func (b *bench) timeSetups() ([]float64, error) {
	var out []float64
	for i := 0; i < setupRuns; i++ {
		_, srv, d, err := setup(b.model, serveConfig(nil))
		if err != nil {
			return nil, err
		}
		if err := srv.Close(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// checkServed checks one replay's conservation: under Block every
// offered packet is decided, and the server's own packet count matches
// the decisions observed.
func (b *bench) checkServed(label string, r rep) {
	st := r.stats
	b.chk.add("decided_is_offered", r.out.decided == r.out.offered && st.QueueDrops == 0,
		"%s: decided %d, offered %d, shed %d", label, r.out.decided, r.out.offered, st.QueueDrops)
	b.chk.add("stats_packets_is_decided", st.Packets == r.out.decided,
		"%s: Stats.Packets %d, decisions observed %d", label, st.Packets, r.out.decided)
}

// measureLayers measures the per-layer metrics: untraced replays as the
// baseline, one traced replay of the same packets, and the
// single-goroutine layer pass over them.
func (b *bench) measureLayers(outDir string) error {
	start := time.Now()
	limit, opts := b.cap.packets, pumpOpts{}
	if b.w.paced {
		limit = b.pacedLimit(0.45)
		opts.rate = liveRate
	}
	opts.limit = limit

	// Baseline: untraced replays of the packets the traced replay offers.
	// A paced replay's length is set by the pacer, so one is enough;
	// closed-loop replays fill 40% of the budget.
	var base []rep
	for {
		progress("untraced replay %d", len(base)+1)
		var r rep
		var err error
		if b.w.paced {
			r, err = pumpReplay(b.model, b.cap, b.dec, opts)
		} else {
			r, err = replayClosed(b.model, b.cap, b.dec)
		}
		if err != nil {
			return err
		}
		b.checkServed(fmt.Sprintf("untraced_%d", len(base)+1), r)
		b.count(r)
		base = append(base, r)
		if b.w.paced || (len(base) >= 2 && time.Since(start) >= b.budget*4/10) {
			break
		}
	}

	progress("traced replay")
	opts.hand = make([]int64, b.cap.packets)
	tr, cpuRec, err := b.tracedReplay(opts)
	if err != nil {
		return err
	}
	b.checkServed("traced", tr)
	b.count(tr)
	printPaths(tr.stats)
	b.chk.add("traced_matches_untraced", tr.hash == base[0].hash,
		"traced hash %016x, untraced %016x", tr.hash, base[0].hash)
	waits, waitMisses := b.waits(tr, opts.hand)

	progress("layer pass")
	wallRec := newWallRecorder()
	mism, nvec, err := layerPass(b.model, b.cap, b.dec, limit, len(tr.stats.Shards), wallRec)
	if err != nil {
		return err
	}
	b.chk.add("layer_pass_matches_served", mism == 0, "%d of %d decisions differ", mism, tr.out.decided)
	alloc, err := decodeAllocs(b.cap, limit)
	if err != nil {
		return err
	}

	path := filepath.Join(outDir, "spans-"+b.w.name+".tsv")
	if err := writeSpanFile(path, cpuRec, wallRec); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(cpuRec.spans)+len(wallRec.spans), path)

	// Span names are distinct across the two recorders.
	lt := selfTimes(cpuRec.spans)
	for name, t := range selfTimes(wallRec.spans) {
		lt[name] = t
	}
	st := tr.stats
	offered, processed := float64(tr.out.offered), float64(tr.out.decided)
	perPkt := func(name string, n float64) float64 { return float64(lt[name].self) / n }

	var baseCPU, baseWall []float64
	for _, r := range base {
		baseCPU = append(baseCPU, float64(r.cpu.Nanoseconds())/float64(r.out.offered))
		baseWall = append(baseWall, r.wall.Seconds())
	}
	cpuNs := median(baseCPU)
	fmt.Printf("baseline: cpu_ns_per_pkt=%.1f wall_s=%.4f (median of %d untraced replays)\n", cpuNs, median(baseWall), len(base))

	b.add("netpkt.decode_ns_per_pkt", "ns", perPkt("netpkt.decode", offered), "traced replay, producer thread CPU")
	b.add("netpkt.alloc_b_per_pkt", "B", alloc, "decode-only pass")
	b.add("features.fold_ns_per_pkt", "ns", perPkt("features.fold", float64(limit)), "layer pass")
	b.add("serve.ingest_ns_per_pkt", "ns", perPkt("serve.ingest", offered), "IngestBatch, producer thread CPU, fold included")
	b.add("serve.batch_fill", "pkts", float64(st.Packets)/float64(max(1, st.Batches)), fmt.Sprintf("%d packets / %d batches", st.Packets, st.Batches))
	for _, p := range []struct {
		name string
		q    float64
	}{{"serve.wait_us_p50", 0.5}, {"serve.wait_us_p99", 0.99}} {
		v, ok := percentile(waits, waitMisses, p.q)
		if !ok {
			return fmt.Errorf("%s: too few samples", p.name)
		}
		b.add(p.name, "us", finiteUs(v), fmt.Sprintf("hand-off to decision, n=%d, %d never decided", len(waits), waitMisses))
	}
	b.add("serve.drain_ms", "ms", float64(tr.drain.Nanoseconds())/1e6, "wall time of Flush + Close after the last ingest")
	b.add("switchsim.process_ns_per_pkt", "ns", perPkt("switchsim.process", processed), "ProcessBatch self time, digests excluded")
	b.add("switchsim.sweep_ms", "ms", float64(lt["switchsim.sweep"].self)/1e6, fmt.Sprintf("%d sweeps", lt["switchsim.sweep"].count))
	b.add("switchsim.hard_collision_frac", "frac", float64(st.HardCollisions)/float64(st.Packets), "")
	b.add("switchsim.recirc_per_pkt", "1/pkt", float64(st.Recirculated)/float64(st.Packets), "")
	for p, name := range pathNames {
		b.add("switchsim.path_"+name+"_frac", "frac", float64(st.PathCounts[p])/float64(st.Packets), "")
	}
	od := lt["controller.on_digest"]
	b.add("controller.on_digest_ns", "ns", float64(od.self)/float64(max(1, od.count)), fmt.Sprintf("%d digests", od.count))
	b.add("controller.digests_per_kpkt", "1/kpkt", float64(st.Digests)*1000/float64(st.Packets), "")
	b.add("controller.evictions", "count", float64(st.RulesEvicted), "")
	b.add("rules.fl_match_ns", "ns", float64(lt["rules.fl_match"].self)/float64(max(1, nvec*flMatchRounds)), fmt.Sprintf("%d FL vectors x %d", nvec, flMatchRounds))
	b.add("rules.fl_rules", "count", float64(b.model.compiled), "")

	if b.w.paced {
		slices.Sort(base[0].late)
		late, ok := percentile(base[0].late, 0, 0.99)
		if !ok {
			return fmt.Errorf("gen.late_p99_us: too few samples")
		}
		b.add("gen.late_p99_us", "us", late/1e3, "how far behind its schedule the pacer handed packets off, untraced replay")
		b.add("trace.overhead_frac", "frac", tr.cpu.Seconds()/base[0].cpu.Seconds()-1, "CPU time: a paced replay's wall time is set by the pacer")
	} else {
		b.add("gen.late_p99_us", "us", 0, "a closed loop has no schedule")
		b.add("trace.overhead_frac", "frac", tr.wall.Seconds()/median(baseWall)-1, "wall time")
	}
	layerNs := perPkt("netpkt.decode", offered) + perPkt("serve.ingest", offered) +
		(float64(lt["switchsim.process"].self+lt["switchsim.sweep"].self+od.self))/processed
	b.add("trace.unaccounted_frac", "frac", 1-layerNs/cpuNs,
		fmt.Sprintf("layers sum to %.1f of %.1f CPU ns/pkt", layerNs, cpuNs))
	return nil
}

// waits returns the sorted hand-off-to-decision times of a traced
// replay and how many offered packets were never decided.
func (b *bench) waits(r rep, hand []int64) ([]int64, int) {
	waits := make([]int64, 0, r.out.decided)
	misses := 0
	for seq := 0; seq < r.out.offered; seq++ {
		if b.dec.code[seq] == 0 {
			misses++
			continue
		}
		waits = append(waits, b.dec.at[seq]-hand[seq])
	}
	slices.Sort(waits)
	return waits, misses
}

// tracedReplay is pumpReplay with spans on the producer thread's CPU
// clock; the thread stays locked to the goroutine for the clock to
// mean anything.
func (b *bench) tracedReplay(opts pumpOpts) (rep, *recorder, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	opts.rec = newThreadCPURecorder()
	r, err := pumpReplay(b.model, b.cap, b.dec, opts)
	return r, opts.rec, err
}

func writeSpanFile(path string, recs ...*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, recs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the checks and metrics and the result line, and
// returns the exit code.
func (b *bench) report() int {
	for _, c := range b.chk.list {
		fmt.Printf("check %s: %s %s\n", c.name, c.status(), c.detail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range b.metrics {
		fmt.Printf("metric %s = %.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			fmt.Printf(" (%s)", m.note)
		}
		fmt.Println()
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.chk.ok(), b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !b.chk.ok() {
		fmt.Fprintln(os.Stderr, "perfbench: an output check failed")
		return 1
	}
	return 0
}

// checks collects the run's output checks. A check made several times
// (once per replay) is kept once: it passes only if every instance did,
// and its detail is the first failure's, else the last instance's.
type checks struct{ list []*check }

type check struct {
	name, detail string
	ok           bool
	n            int
}

func (c *checks) find(name string) *check {
	for _, x := range c.list {
		if x.name == name {
			return x
		}
	}
	x := &check{name: name, ok: true}
	c.list = append(c.list, x)
	return x
}

func (c *checks) add(name string, ok bool, format string, args ...any) {
	x := c.find(name)
	x.n++
	if x.ok {
		x.ok, x.detail = ok, fmt.Sprintf(format, args...)
	}
}

func (c *checks) ok() bool {
	for _, x := range c.list {
		if !x.ok {
			return false
		}
	}
	return true
}

func (c *check) status() string {
	if !c.ok {
		return "FAIL"
	}
	return fmt.Sprintf("ok (%d of %d)", c.n, c.n)
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
