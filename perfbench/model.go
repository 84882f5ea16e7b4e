package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"iguard"
	"iguard/internal/serve"
	"iguard/internal/traffic"
)

// The training capture is fixed rather than derived from the workload
// seed: across generator seeds, training on 100 benign flows takes from
// 2.9 s to 17 s and compiles from 28 to 166 rules, so a seed-derived
// model would make train_s and every per-packet metric swing with the
// seed. This seed pair trains in about 4 s on a 2-CPU host and compiles
// 77 rules; models trained on 40 or 60 flows train faster but drop
// 15-23% of benign packets instead of 1.5%.
const (
	trainCaptureSeed = 39595
	trainFlows       = 100
	trainSeed        = 5
	// trainRuns trains the model this many times per run: train_s is
	// their median, and the saved models must be byte-identical.
	trainRuns = 3
)

// model is the trained detector as iguard-train would hand it to
// iguard-serve -model: Save output, reloaded for every server.
type model struct {
	saved    []byte
	hash     string
	rules    int
	compiled int
	trainS   []float64
}

// trainModel runs iguard.Train on the training capture trainRuns
// times and checks that every run saved the same bytes.
func trainModel(chk *checks) (*model, error) {
	pkts := traffic.GenerateBenign(trainCaptureSeed, trainFlows).Packets
	cfg := iguard.DefaultConfig()
	cfg.Seed = trainSeed
	m := &model{}
	for i := 0; i < trainRuns; i++ {
		runtime.GC() // start each training from the same heap
		start := time.Now()
		det, err := iguard.Train(pkts, cfg)
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		m.trainS = append(m.trainS, time.Since(start).Seconds())
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		hash := hex.EncodeToString(sum[:8])
		if i == 0 {
			m.saved, m.hash = buf.Bytes(), hash
			m.rules, m.compiled = det.Rules().Len(), len(det.CompiledRules().Rules)
			continue
		}
		chk.add("model_deterministic", hash == m.hash && det.Rules().Len() == m.rules,
			"train %d: rules=%d hash=%s, train 1: rules=%d hash=%s", i+1, det.Rules().Len(), hash, m.rules, m.hash)
	}
	return m, nil
}

// serveConfig is DefaultServeConfig with one producer lane, as
// iguard-serve -model runs it, under the Block policy, so no packet is
// shed, and with one shard per CPU left over by the producer, so no
// more goroutines are busy than there are CPUs. On a 2-CPU host one
// shard beside the producer replayed flow-churn at 1.43–1.51 Mpps with
// replays of one run within ±10%, two shards at 1.25 Mpps within ±20%.
func serveConfig(dec *decisions) iguard.ServeConfig {
	cfg := iguard.DefaultServeConfig()
	cfg.Shards = max(1, runtime.NumCPU()-1)
	cfg.Producers = 1
	cfg.Policy = serve.Block
	if dec != nil {
		cfg.OnDecision = dec.observe
	}
	return cfg
}

// setup loads the saved model and builds a server: the set-up cost a
// daemon pays at start and on every model reload.
func setup(m *model, cfg iguard.ServeConfig) (*iguard.Detector, *serve.Server, time.Duration, error) {
	start := time.Now()
	det, err := iguard.Load(bytes.NewReader(m.saved))
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := det.NewServer(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	return det, srv, time.Since(start), nil
}
