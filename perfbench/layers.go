package main

import (
	"bytes"
	"io"
	"sort"
	"time"

	"iguard"
	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/switchsim"
)

// serveBatchFlush is serve.Config's default BatchFlush, which
// DefaultServeConfig leaves in force: a partial batch is handed off
// once the trace clock moves this far past the last flush.
const serveBatchFlush = time.Millisecond

// flSampleMask keeps one flow in eight (by key fold) for the FL-vector
// sample the rule matcher is timed on.
const flSampleMask = 7

// flMatchRounds matches the FL-vector sample this many times, so the
// matcher's total time is well above the clock's resolution.
const flMatchRounds = 10

// timedSink is the controller as the switches' digest sink, with a
// span around each OnDigest call.
type timedSink struct {
	ctrl *controller.Controller
	rec  *recorder
}

func (t timedSink) OnDigest(d switchsim.Digest) {
	id := t.rec.begin("controller.on_digest", -1)
	t.ctrl.OnDigest(d)
	t.rec.end(id)
}

// layerPass replays the first n packets of the capture on this
// goroutine through one switch and controller per shard, built as
// NewServer builds them. Each packet goes to the shard that decided it
// in the served run ref; packets the served run never decided are
// skipped. Batches fill and flush, and sweeps fire, at the trace-time
// points the serve runtime uses, so every switch sees the packets and
// sweeps its served twin saw. The pass records spans for the key fold,
// each switch batch, each sweep and each digest, and then for the rule
// matcher on a sample of the capture's FL vectors. It returns how many
// decisions differ from ref's.
func layerPass(m *model, c *capture, ref *decisions, n, shards int, rec *recorder) (mismatches int, nvec int, err error) {
	det, err := iguard.Load(bytes.NewReader(m.saved))
	if err != nil {
		return 0, 0, err
	}
	scfg := iguard.DefaultServeConfig()
	type pending struct {
		pkts  []netpkt.Packet
		keys  []features.FlowKey
		folds []uint32
		seqs  []int
	}
	sws := make([]*switchsim.Switch, shards)
	pend := make([]pending, shards)
	for i := range sws {
		dep, err := det.NewDeployment(scfg.Deploy)
		if err != nil {
			return 0, 0, err
		}
		dep.Switch.SetSink(timedSink{ctrl: dep.Controller, rec: rec})
		sws[i] = dep.Switch
	}
	out := make([]switchsim.Decision, scfg.BatchSize)
	chunk := 0
	flush := func(s int) {
		p := &pend[s]
		if len(p.pkts) == 0 {
			return
		}
		id := rec.begin("switchsim.process", chunk)
		sws[s].ProcessBatch(p.pkts, p.keys, p.folds, out[:len(p.pkts)])
		rec.end(id)
		for i, seq := range p.seqs {
			if encodeDecision(out[i]) != ref.code[seq] {
				mismatches++
			}
		}
		p.pkts, p.keys, p.folds, p.seqs = p.pkts[:0], p.keys[:0], p.folds[:0], p.seqs[:0]
	}
	flushAll := func() {
		for s := range pend {
			flush(s)
		}
	}

	rd, err := netpkt.NewPcapReader(bytes.NewReader(c.pcap))
	if err != nil {
		return 0, 0, err
	}
	buf := make([]netpkt.Packet, scfg.BatchSize)
	keys := make([]features.FlowKey, len(buf))
	folds := make([]uint32, len(buf))
	sampled := map[features.FlowKey][]netpkt.Packet{}
	var lastSeen, lastFlush, lastTick int64
	root := rec.begin("layers", -1)
	for seq := 0; seq < n; chunk++ {
		k, rerr := rd.NextValidBatch(buf[:min(len(buf), n-seq)])
		id := rec.begin("features.fold", chunk)
		for j := 0; j < k; j++ {
			keys[j], folds[j] = features.CanonicalFoldOf(&buf[j])
		}
		rec.end(id)
		for j := 0; j < k; j, seq = j+1, seq+1 {
			if ref.code[seq] == 0 {
				continue
			}
			// Producer.observe: flush deadline first, then sweep tick.
			ns := buf[j].Timestamp.UnixNano()
			switch {
			case lastSeen == 0:
				lastSeen, lastFlush, lastTick = ns, ns, ns
			case ns > lastSeen:
				lastSeen = ns
				if time.Duration(ns-lastFlush) >= serveBatchFlush {
					lastFlush = ns
					flushAll()
				}
				if time.Duration(ns-lastTick) >= scfg.SweepEvery {
					lastTick = ns
					flushAll()
					now := time.Unix(0, ns).UTC()
					for _, sw := range sws {
						id := rec.begin("switchsim.sweep", chunk)
						sw.SweepTimeouts(now)
						rec.end(id)
					}
				}
			}
			s := int(ref.shard[seq])
			p := &pend[s]
			p.pkts = append(p.pkts, buf[j])
			p.keys = append(p.keys, keys[j])
			p.folds = append(p.folds, folds[j])
			p.seqs = append(p.seqs, seq)
			if len(p.pkts) >= scfg.BatchSize {
				flush(s)
			}
			if folds[j]&flSampleMask == 0 {
				sampled[keys[j]] = append(sampled[keys[j]], buf[j])
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
	flushAll()
	rec.end(root)

	vecs := flVectors(sampled)
	compiled := det.CompiledRules()
	root = rec.begin("rules", -1)
	sink := 0
	for round := 0; round < flMatchRounds; round++ {
		for i := 0; i < len(vecs); i += 256 {
			id := rec.begin("rules.fl_match", -1)
			for _, v := range vecs[i:min(i+256, len(vecs))] {
				sink += compiled.Match(v)
			}
			rec.end(id)
		}
	}
	rec.end(root)
	if sink < 0 {
		panic("unreachable: Match returns a label") // keeps the matches from being optimised away
	}
	return mismatches, len(vecs), nil
}

// flVectors extracts the FL vectors of the sampled flows, one flow at a
// time so each extractor holds a single flow, in key order.
func flVectors(sampled map[features.FlowKey][]netpkt.Packet) [][]float64 {
	keys := make([]features.FlowKey, 0, len(sampled))
	for k := range sampled { // sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i].Bytes(), keys[j].Bytes()
		return bytes.Compare(a[:], b[:]) < 0
	})
	cfg := iguard.DefaultConfig()
	var vecs [][]float64
	for _, k := range keys {
		for _, s := range features.ExtractAll(sampled[k], cfg.FlowThreshold, cfg.FlowTimeout) {
			vecs = append(vecs, s.FL)
		}
	}
	return vecs
}
