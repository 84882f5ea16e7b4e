package main

import (
	"bytes"
	"slices"
	"testing"

	"iguard/internal/netpkt"
	"iguard/internal/traffic"
)

// TestCaptureDeterministic pins that a workload seed fully determines
// the capture: the same seed gives byte-identical pcap bytes and labels
// for every workload's spec, and another seed gives other bytes.
func TestCaptureDeterministic(t *testing.T) {
	for name, spec := range map[string]captureSpec{"mix": mixSpec, "churn": churnSpec} {
		a, err := buildCapture(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildCapture(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.pcap, b.pcap) || !slices.Equal(a.malicious, b.malicious) {
			t.Errorf("%s: seed 3 built two different captures", name)
		}
	}
	small := captureSpec{benignFlows: 40, attacks: []attackMix{{traffic.UDPDDoS, 4}, {traffic.Mirai, 10}}}
	a, err := buildCapture(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCapture(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.pcap, b.pcap) {
		t.Error("seeds 1 and 2 built the same capture")
	}
}

// TestCaptureDecodes checks the capture's bookkeeping against what the
// serving path reads back: every written packet decodes, in order, and
// the labels line up with it.
func TestCaptureDecodes(t *testing.T) {
	c, err := buildCapture(captureSpec{benignFlows: 40, attacks: []attackMix{{traffic.ServiceScan, 10}}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := netpkt.NewPcapReader(bytes.NewReader(c.pcap))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != c.packets || len(c.malicious) != c.packets {
		t.Fatalf("decoded %d packets, %d labels, capture says %d", len(pkts), len(c.malicious), c.packets)
	}
	mal := 0
	for i := range pkts {
		if c.malicious[i] != (pkts[i].SrcIP[0] == 66) { // attackers live in 66.66/16
			t.Fatalf("packet %d: label %v for source %v", i, c.malicious[i], pkts[i].SrcIP)
		}
		if c.malicious[i] {
			mal++
		}
	}
	if mal != c.malPkts || mal == 0 || c.malFlows == 0 {
		t.Errorf("malicious packets %d, capture says %d (flows %d)", mal, c.malPkts, c.malFlows)
	}
}
