package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/traffic"
)

// attackMix asks traffic.GenerateAttack for flows flows of one attack
// (scans spawn several flows per requested one, floods fewer).
type attackMix struct {
	name  traffic.AttackName
	flows int
}

// captureSpec is the recipe of one workload's capture; the seed picks
// the concrete flows.
type captureSpec struct {
	benignFlows int
	attacks     []attackMix
}

// mixSpec is ~20k benign flows plus a UDP flood: ≈1.5M packets, most
// of them on flows that are already classified, so the per-packet
// layers dominate and the controller stays nearly idle.
var mixSpec = captureSpec{
	benignFlows: 20000,
	attacks:     []attackMix{{traffic.UDPDDoS, 1800}},
}

// churnSpec is the same benign traffic plus ≈132k tiny scan flows,
// which keep inserting and evicting flow state, digests and blacklist
// entries.
var churnSpec = captureSpec{
	benignFlows: 20000,
	attacks: []attackMix{
		{traffic.Mirai, 12000},
		{traffic.ServiceScan, 12000},
		{traffic.OSScan, 12000},
	},
}

// capture is a workload's input: pcap bytes as the serving path reads
// them, plus the ground truth the output checks need.
type capture struct {
	pcap []byte
	// malicious[i] is the label of the i-th packet in capture order,
	// which with one ingest lane is also its sequence number.
	malicious []bool
	// flow[i] numbers the i-th packet's flow, in order of first packet.
	flow     []int32
	packets  int
	flows    int
	malFlows int
	malPkts  int
	span     time.Duration // trace time from first to last packet
}

// subSeed derives an independent generator seed for part k of the
// capture of workload seed (splitmix64 finaliser).
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// buildCapture generates the capture of spec for seed. The same spec
// and seed always give byte-identical pcap bytes.
func buildCapture(spec captureSpec, seed int64) (*capture, error) {
	parts := []*traffic.Trace{traffic.GenerateBenign(subSeed(seed, 0), spec.benignFlows)}
	for i, a := range spec.attacks {
		tr, err := traffic.GenerateAttack(a.name, subSeed(seed, i+1), a.flows)
		if err != nil {
			return nil, err
		}
		parts = append(parts, tr)
	}
	// One stable sort over the concatenation (Trace.Merge re-sorts per
	// pair, which costs a sort of the whole capture per attack).
	var pkts []netpkt.Packet
	malicious := map[features.FlowKey]bool{}
	for _, tr := range parts {
		pkts = append(pkts, tr.Packets...)
		for k := range tr.Malicious { // set union: order-independent
			malicious[k] = true
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	if len(pkts) == 0 {
		return nil, fmt.Errorf("perfbench: empty capture")
	}

	c := &capture{malicious: make([]bool, len(pkts)), packets: len(pkts)}
	var buf bytes.Buffer
	w := netpkt.NewPcapWriter(&buf)
	flows := map[features.FlowKey]bool{}
	for i := range pkts {
		p := &pkts[i]
		if err := w.WritePacket(p); err != nil {
			return nil, err
		}
		key := features.KeyOf(p).Canonical()
		mal := malicious[key]
		if !flows[key] {
			flows[key] = true
			if mal {
				c.malFlows++
			}
		}
		c.malicious[i] = mal
		if mal {
			c.malPkts++
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	c.pcap = buf.Bytes()
	c.flows = len(flows)
	c.span = pkts[len(pkts)-1].Timestamp.Sub(pkts[0].Timestamp)
	return c, nil
}

// tracePPS is the capture's packet rate in trace time.
func (c *capture) tracePPS() float64 {
	if c.span <= 0 {
		return 0
	}
	return float64(c.packets) / c.span.Seconds()
}
