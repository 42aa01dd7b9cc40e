package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/txdel/client"
)

// cycleStream is the paper's basic conflict cycle on one shard, as
// DumpTrace records it: T1 r(x), T2 r(y), T2 W(x) commits, and T1 W(y)
// would close T1 → T2 → T1, so it is rejected.
func cycleStream() []recStep {
	const x, y = 0, 4
	return []recStep{
		{Txn: 1, Kind: "begin", Footprint: []model.Entity{x, y}, Accepted: true},
		{Txn: 2, Kind: "begin", Footprint: []model.Entity{x, y}, Accepted: true},
		{Txn: 1, Kind: "read", Entity: x, Accepted: true},
		{Txn: 2, Kind: "read", Entity: y, Accepted: true},
		{Txn: 2, Kind: "write", Entities: []model.Entity{x}, Accepted: true},
		{Txn: 1, Kind: "write", Entities: []model.Entity{y}, Accepted: false},
		{Txn: 3, Kind: "begin", Footprint: []model.Entity{x}, Accepted: true},
		{Txn: 3, Kind: "write", Entities: []model.Entity{x}, Accepted: true},
	}
}

func TestReplayReproducesRecordedDecisions(t *testing.T) {
	for _, pol := range []core.Policy{nil, core.GreedyC1{}} {
		var rs replayStats
		i, err := replay(cycleStream(), pol, 0, &rs)
		if err != nil || i >= 0 {
			t.Fatalf("policy %v: departs at step %d (%v)", pol, i, err)
		}
		if rs.steps != 8 || rs.completed != 2 {
			t.Fatalf("policy %v: %d steps %d completed, want 8 and 2", pol, rs.steps, rs.completed)
		}
	}
}

func TestFlippedDecisionFailsTheCheck(t *testing.T) {
	s := cycleStream()
	for k := range s {
		flipped := append([]recStep(nil), s...)
		flipped[k].Accepted = !flipped[k].Accepted
		var rs replayStats
		if i, _ := replay(flipped, core.GreedyC1{}, 0, &rs); i != k {
			t.Errorf("flipping step %d: check reports step %d", k, i)
		}
	}
	if i, _ := replay(flipOne(s, len(s)), nil, 0, &replayStats{}); i < 0 {
		t.Error("flipOne's stream passed the check")
	}
}

func TestShardStreams(t *testing.T) {
	streams, local := shardStreams(cycleStream(), 4)
	if !local || len(streams[0]) != 8 {
		t.Fatalf("local %v, shard 0 has %d steps; want the whole stream on shard 0", local, len(streams[0]))
	}
	cross := append(cycleStream(), recStep{Txn: 9, Kind: "begin", Footprint: []model.Entity{1, 2}, Accepted: true})
	if _, local := shardStreams(cross, 4); local {
		t.Fatal("a footprint spanning partitions must make the trace non-local")
	}
}

// TestReplayOfALiveEngine records a real engine's trace, with a conflict
// abort in it, and checks the replay reproduces it.
func TestReplayOfALiveEngine(t *testing.T) {
	db, err := client.Open(client.Config{Shards: 2, Policy: "greedy-c1", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	t1, _ := db.Begin(ctx, client.WithFootprint(0, 2))
	t2, _ := db.Begin(ctx, client.WithFootprint(0, 2))
	if t1.Read(ctx, 0) != nil || t2.Read(ctx, 2) != nil || t2.Write(ctx, 0) != nil {
		t.Fatal("setup steps refused")
	}
	if err := t1.Write(ctx, 2); !errors.Is(err, client.ErrCycle) {
		t.Fatalf("closing write: %v, want ErrCycle", err)
	}
	for i := 0; i < 40; i++ {
		tx, err := db.Begin(ctx, client.WithFootprint(client.Entity(2*i)))
		if err != nil || tx.Write(ctx, client.Entity(2*i)) != nil {
			t.Fatal("blind write refused")
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	steps, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	streams, local := shardStreams(steps, 2)
	if !local || len(streams[0]) == 0 {
		t.Fatal("expected a local stream on shard 0")
	}
	tp := &timedPolicy{Policy: core.GreedyC1{}}
	var rs replayStats
	if i, err := replay(streams[0], tp, 0, &rs); err != nil || i >= 0 {
		t.Fatalf("replay departs at step %d (%v)", i, err)
	}
	if tp.sweeps == 0 || tp.deleted == 0 {
		t.Fatalf("%d sweeps deleted %d: the policy wrapper saw no work", tp.sweeps, tp.deleted)
	}
}
