package main

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTarget serves every attempt in a fixed time and counts how many run
// at once.
type fakeTarget struct {
	service      time.Duration
	inFlight     atomic.Int64
	maxInFlight  atomic.Int64
	conflictOnce bool
	attempts     atomic.Int64
}

func (f *fakeTarget) attempt(_ int, _ *txnInput, _ *tracer) error {
	n := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		m := f.maxInFlight.Load()
		if n <= m || f.maxInFlight.CompareAndSwap(m, n) {
			break
		}
	}
	a := f.attempts.Add(1)
	time.Sleep(f.service)
	if f.conflictOnce && a%2 == 1 {
		return fmt.Errorf("%w: test", errConflict)
	}
	return nil
}

func testFeed() *feed {
	return &feed{in: &inputs{txns: make([]txnInput, 16)}}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, 2 ms per transaction, arrivals every 1 ms: arrival a
	// cannot start before 2a ms, so it waits about a ms past its due time,
	// and that wait is part of its latency.
	ft := &fakeTarget{service: 2 * time.Millisecond}
	tl, lw, _ := openLoop(ft, testFeed(), 1000, 60*time.Millisecond, time.Second, make([]*tracer, 1))
	if tl.commits != 60 {
		t.Fatalf("%d commits, want 60", tl.commits)
	}
	if tl.lag.max < int64(40*time.Millisecond) {
		t.Errorf("generator lag max %v: late arrivals must be counted late", time.Duration(tl.lag.max))
	}
	p50, err := lw.h[0].quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 < float64(20*time.Millisecond) {
		t.Errorf("p50 latency %v: it must include the queueing behind earlier arrivals", time.Duration(p50))
	}
	if tl.backlog < 20 {
		t.Errorf("backlog max %d, want the queued arrivals counted", tl.backlog)
	}
}

func TestOpenLoopCapsInFlight(t *testing.T) {
	// Far more arrivals than two workers can serve: the excess waits in
	// order, never running more than one transaction per worker.
	ft := &fakeTarget{service: time.Millisecond}
	tl, _, late := openLoop(ft, testFeed(), 20000, 20*time.Millisecond, 10*time.Millisecond, make([]*tracer, 2))
	if got := ft.maxInFlight.Load(); got != 2 {
		t.Fatalf("%d transactions in flight at once, want 2", got)
	}
	if !late {
		t.Error("an overloaded schedule must be reported late")
	}
	if tl.commits >= 400 {
		t.Errorf("%d commits: arrivals past the cutoff must be dropped", tl.commits)
	}
}

func TestConflictIsRetriedNotFailed(t *testing.T) {
	ft := &fakeTarget{conflictOnce: true}
	var tl tally
	if !runTxn(ft, 0, &txnInput{}, nil, &tl) {
		t.Fatal("transaction did not commit after a conflict abort")
	}
	if tl.attempts != 2 || tl.commits != 1 || tl.failed != 0 {
		t.Fatalf("attempts %d commits %d failed %d, want 2 1 0", tl.attempts, tl.commits, tl.failed)
	}
}

func TestClosedLoopMedianOfWindows(t *testing.T) {
	ft := &fakeTarget{service: time.Millisecond}
	rt, tl := closedLoop(ft, testFeed(), 200*time.Millisecond, make([]*tracer, 2))
	if tl.commits == 0 || rt.raw <= 0 || rt.raw > 2000 || rt.tps < rt.raw {
		t.Fatalf("throughput %+v with %d commits: two workers at 1 ms each top out at 2000/s", rt, tl.commits)
	}
	if ft.maxInFlight.Load() != 2 {
		t.Fatalf("%d in flight, want one per session", ft.maxInFlight.Load())
	}
}
