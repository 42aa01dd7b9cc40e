package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/store"
)

// ---------------------------------------------------------------------------
// store: a timing wrapper around each shard's ShardStore, handed to the
// engine through client.Config.Store.

type timedStore struct {
	store.Store
	shards []*timedShard
}

func newTimedStore(inner store.Store, clk *traceClock) *timedStore {
	ts := &timedStore{Store: inner}
	for i := 0; i < inner.NumShards(); i++ {
		ts.shards = append(ts.shards, &timedShard{ShardStore: inner.Shard(i), clk: clk})
	}
	return ts
}

func (s *timedStore) Shard(i int) store.ShardStore { return s.shards[i] }

// snapshotSamples bounds the checkpoint images each shard keeps for the
// export rung, taking every snapshotEvery-th.
const (
	snapshotSamples = 32
	snapshotEvery   = 16
)

// timedShard is owned by its shard's goroutine, like the store it wraps;
// it is read only after the engine has closed.
type timedShard struct {
	store.ShardStore
	clk                    *traceClock
	appendH, syncH, ckptH  hist
	ckptBytes, checkpoints int64
	lastTxn                int64 // the transaction a following Sync makes durable
	spans                  []span
	snaps                  [][]byte
}

func (t *timedShard) call(op string, txn int64, f func() error) (int64, error) {
	t0 := t.clk.now()
	err := f()
	d := t.clk.now() - t0
	if len(t.spans) < maxSpansPerTracer {
		t.spans = append(t.spans, span{id: t.clk.ids.Add(1), layer: layerStore, op: op, txn: txn, start: t0, end: t0 + d})
	}
	return d, err
}

func (t *timedShard) Append(r *store.Record) error {
	t.lastTxn = int64(r.Txn)
	d, err := t.call("append", int64(r.Txn), func() error { return t.ShardStore.Append(r) })
	t.appendH.record(d)
	return err
}

func (t *timedShard) Sync() error {
	d, err := t.call("sync", t.lastTxn, t.ShardStore.Sync)
	t.syncH.record(d)
	return err
}

func (t *timedShard) Checkpoint(snap []byte) error {
	d, err := t.call("checkpoint", 0, func() error { return t.ShardStore.Checkpoint(snap) })
	t.ckptH.record(d)
	t.checkpoints++
	t.ckptBytes += int64(len(snap))
	if t.checkpoints%snapshotEvery == 0 && len(t.snaps) < snapshotSamples {
		t.snaps = append(t.snaps, append([]byte(nil), snap...))
	}
	return err
}

// ---------------------------------------------------------------------------
// core sweep: a timing wrapper around the deletion policy.

type timedPolicy struct {
	core.Policy
	dur                       hist
	sweeps, yielding, deleted int64
}

func (p *timedPolicy) Sweep(sw *core.Sweep) {
	s := sw.Scheduler()
	before := s.NumCompleted()
	t0 := time.Now()
	p.Policy.Sweep(sw)
	p.dur.recordSince(t0)
	p.sweeps++
	if n := int64(before - s.NumCompleted()); n > 0 {
		p.yielding++
		p.deleted += n
	}
}

// ---------------------------------------------------------------------------
// core replay: re-apply each shard's recorded stream through a fresh
// scheduler, checking every recorded accept/reject.

// recStep is one line of client.DB.DumpTrace.
type recStep struct {
	Seq       int64          `json:"seq"`
	Txn       model.TxnID    `json:"txn"`
	Kind      string         `json:"kind"`
	Entity    model.Entity   `json:"entity"`
	Entities  []model.Entity `json:"entities"`
	Footprint []model.Entity `json:"footprint"`
	Accepted  bool           `json:"accepted"`
}

func parseTrace(r io.Reader) ([]recStep, error) {
	var out []recStep
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var s recStep
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line %q: %w", sc.Text(), err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// shardStreams splits a trace into per-shard streams by each
// transaction's declared footprint. It reports false when some
// transaction spans partitions: such a trace has no local-only streams.
func shardStreams(steps []recStep, shards int) ([][]recStep, bool) {
	home := map[model.TxnID]int{}
	out := make([][]recStep, shards)
	for _, s := range steps {
		if s.Kind == "begin" {
			if len(s.Footprint) == 0 {
				return nil, false
			}
			p := int(s.Footprint[0]) % shards
			for _, x := range s.Footprint {
				if int(x)%shards != p {
					return nil, false
				}
			}
			home[s.Txn] = p
		}
		p, ok := home[s.Txn]
		if !ok {
			return nil, false
		}
		out[p] = append(out[p], s)
	}
	return out, true
}

// sweepEvery is the engine's default sweep cadence: a sweep after this
// many completions or aborts on a shard.
const sweepEvery = 8

// replayStats is what one replay measured.
type replayStats struct {
	steps, accepted, completed int64
	apply                      hist
	snaps                      [][]byte
	// Peaks are the largest of any one shard; keptSum/keptSamples average
	// the retained completed transactions over accepted steps.
	peakNodes, peakArcs, peakKept int
	keptSum, keptSamples          int64
}

func (rs *replayStats) note(st core.Stats) {
	rs.peakNodes = max(rs.peakNodes, st.PeakNodes)
	rs.peakArcs = max(rs.peakArcs, st.PeakArcs)
	rs.peakKept = max(rs.peakKept, st.PeakKept)
	rs.keptSum += st.KeptSum
	rs.keptSamples += st.KeptSample
}

// replay re-applies stream through a scheduler under pol (nil: never
// delete) and returns the index of the first step whose decision differs
// from the recorded one, or -1. It stops after limit steps when limit > 0.
func replay(stream []recStep, pol core.Policy, limit int, rs *replayStats) (int, error) {
	s := core.NewScheduler(core.Config{Policy: pol, SweepManual: true})
	since, sweeps := 0, 0
	for i, st := range stream {
		if limit > 0 && i >= limit {
			break
		}
		var step model.Step
		switch st.Kind {
		case "abort-mark":
			if t := s.Txn(st.Txn); t != nil && t.Status == model.StatusActive {
				if err := s.AbortTxn(st.Txn); err != nil {
					return i, err
				}
				since++
			}
			continue
		case "begin":
			step = model.BeginDeclared(st.Txn, st.Footprint...)
		case "read":
			step = model.Read(st.Txn, st.Entity)
		case "write":
			step = model.WriteFinal(st.Txn, st.Entities...)
		default:
			return i, fmt.Errorf("unknown step kind %q", st.Kind)
		}
		t0 := time.Now()
		res, err := s.Apply(step)
		rs.apply.recordSince(t0)
		rs.steps++
		if err != nil || res.Accepted != st.Accepted {
			rs.note(s.Stats())
			return i, nil
		}
		if res.Accepted {
			rs.accepted++
		}
		if res.CompletedTxn != model.NoTxn {
			rs.completed++
			since++
		}
		if res.Aborted != model.NoTxn {
			since++
		}
		if since >= sweepEvery {
			s.SweepNow()
			since = 0
			sweeps++
			if pol != nil && sweeps%(4*snapshotEvery) == 0 && len(rs.snaps) < snapshotSamples {
				rs.snaps = append(rs.snaps, store.EncodeSnapshot(s.ExportState()))
			}
		}
	}
	rs.note(s.Stats())
	return -1, nil
}

// ---------------------------------------------------------------------------
// core export: restore captured checkpoint images and time what a
// checkpoint costs the shard loop, ExportState plus EncodeSnapshot.

type exportStats struct {
	export                            hist
	nodesPeak, arcsPeak, retainedPeak int
	retainedSum                       float64
	images                            int
}

func exportRung(snaps [][]byte) (exportStats, error) {
	var es exportStats
	for _, b := range snaps {
		st, err := store.DecodeSnapshot(b)
		if err != nil {
			return es, fmt.Errorf("decode snapshot: %w", err)
		}
		s, err := core.RestoreScheduler(core.Config{SweepManual: true}, st)
		if err != nil {
			return es, fmt.Errorf("restore snapshot: %w", err)
		}
		es.images++
		es.nodesPeak = max(es.nodesPeak, s.Graph().NumNodes())
		es.arcsPeak = max(es.arcsPeak, s.Graph().NumArcs())
		es.retainedPeak = max(es.retainedPeak, s.NumCompleted())
		es.retainedSum += float64(s.NumCompleted())
		for r := 0; r < 8; r++ {
			t0 := time.Now()
			store.EncodeSnapshot(s.ExportState())
			es.export.recordSince(t0)
		}
	}
	return es, nil
}

// ---------------------------------------------------------------------------
// ring: Mailbox Send → Next → Reply round trips between one producer and
// the consumer, with GOMAXPROCS procs.

// ringMsg is as wide as a small engine request, so the cell copies are
// comparable.
type ringMsg [8]int64

func ringRTT(procs, n int) float64 {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	mb := ring.NewMailbox[ringMsg, ringMsg](64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, tk, fire, ok := mb.Next()
			if !ok {
				if !mb.Park(stop) {
					return
				}
				continue
			}
			if !fire {
				mb.Reply(tk, req)
			}
		}
	}()
	var h hist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		mb.Send(ringMsg{int64(i)}, stop)
		h.recordSince(t0)
	}
	close(stop)
	<-done
	return h.q(0.5)
}
