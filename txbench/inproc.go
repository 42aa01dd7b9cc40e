package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/txdel"
	"repro/txdel/client"
)

// classify maps a client error onto the benchmark's outcome: conflict
// verdicts are retried, everything else — a deadline, an overload shed, a
// closed DB, a protocol error — is a failure.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, client.ErrStragglerAborted),
		errors.Is(err, client.ErrOverload), errors.Is(err, client.ErrClosed), errors.Is(err, client.ErrProtocol):
		return err
	case errors.Is(err, client.ErrCycle), errors.Is(err, client.ErrCrossCycle), errors.Is(err, client.ErrTxnAborted):
		return fmt.Errorf("%w: %w", errConflict, err)
	}
	return err
}

// inproc drives a client.DB in this process.
type inproc struct{ db *client.DB }

func (p inproc) attempt(_ int, in *txnInput, tr *tracer) error {
	ctx, cancel := context.WithTimeout(context.Background(), txnDeadline)
	defer cancel()
	t0 := tr.now()
	txn, err := p.db.Begin(ctx, client.WithFootprint(in.fp[:]...))
	if err != nil {
		return classify(err)
	}
	id := int64(txn.ID())
	if tr != nil {
		t0 = tr.op(layerClient, "begin", id, t0, &tr.begin)
	}
	for _, x := range in.reads() {
		err = txn.Read(ctx, x)
		if tr != nil {
			t0 = tr.op(layerClient, "read", id, t0, &tr.read)
		}
		if err != nil {
			_ = txn.Abort() // a no-op unless a protocol error left it live
			return classify(err)
		}
	}
	err = txn.Write(ctx, in.write())
	if tr != nil {
		end := tr.op(layerClient, "write", id, t0, &tr.write)
		h := &tr.writeLocal
		if in.cross {
			h = &tr.writeCross
		}
		h.record(end - t0)
	}
	if err != nil {
		_ = txn.Abort()
	}
	return classify(err)
}

// clientConfig is the engine configuration of a workload.
func clientConfig(w *workload) client.Config {
	return client.Config{Shards: w.shards, Policy: w.policy}
}

// openInproc generates the inputs and opens the engine, and returns with
// the first transaction's BEGIN accepted: the span setup_s measures. The
// first transaction is then run to commit.
func openInproc(w *workload, seed int64, cfg client.Config) (*client.DB, *feed, time.Duration, error) {
	t0 := time.Now()
	f := &feed{in: genInputs(w, seed)}
	db, err := client.Open(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	in := f.take()
	ctx, cancel := context.WithTimeout(context.Background(), txnDeadline)
	defer cancel()
	txn, err := db.Begin(ctx, client.WithFootprint(in.fp[:]...))
	setup := time.Since(t0)
	if err == nil {
		for _, x := range in.reads() {
			if err = txn.Read(ctx, x); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = txn.Write(ctx, in.write())
	}
	if err != nil {
		db.Close()
		return nil, nil, 0, fmt.Errorf("first transaction: %w", err)
	}
	return db, f, setup, nil
}

// preloadInproc is the load phase: one blind-write transaction per entity,
// through the batch path, so every run measures an engine whose entities
// all have a current writer rather than one still filling its maps. It
// returns the transactions committed.
func preloadInproc(db *client.DB, w *workload) (int64, error) {
	var commits int64
	steps := make([]client.Step, 0, 2*preloadBatch)
	for x := 0; x < w.entities; x += preloadBatch {
		steps = steps[:0]
		for e := x; e < min(x+preloadBatch, w.entities); e++ {
			id := client.TxnID(preloadBase + e)
			steps = append(steps, txdel.BeginDeclared(id, client.Entity(e)), txdel.WriteFinal(id, client.Entity(e)))
		}
		for _, res := range db.SubmitBatch(steps) {
			if res.Err != nil {
				return commits, fmt.Errorf("load phase: %w", res.Err)
			}
			if res.CompletedTxn != client.NoTxn {
				commits++
			}
		}
	}
	return commits, nil
}

// stragglers runs the workload's rolling read-only straggler sessions
// until stop: each reads its entities one at a time, evenly over
// stragglerLife, then commits; a straggler aborted by a conflict verdict
// is replaced by the next.
type stragglers struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	tally tally
}

func startStragglers(db *client.DB, in *inputs) *stragglers {
	s := &stragglers{stop: make(chan struct{})}
	for _, cycle := range in.stragglers {
		s.wg.Add(1)
		go func(cycle [][]client.Entity) {
			defer s.wg.Done()
			tick := time.NewTicker(stragglerLife / stragglerReads)
			defer tick.Stop()
			for g := 0; ; g++ {
				var tl tally
				err := s.one(db, cycle[g%len(cycle)], tick)
				tl.attempts = 1
				switch {
				case err == nil:
					tl.commits = 1
				case errors.Is(err, errStopped):
					return
				case errors.Is(classify(err), errConflict):
					// Replaced by the next: an attempt, not a failure.
				default:
					tl.failed, tl.firstErr = 1, err
				}
				s.mu.Lock()
				s.tally.add(&tl)
				s.mu.Unlock()
			}
		}(cycle)
	}
	return s
}

var errStopped = errors.New("stopped")

func (s *stragglers) one(db *client.DB, fp []client.Entity, tick *time.Ticker) error {
	ctx := context.Background()
	txn, err := db.Begin(ctx, client.WithFootprint(fp...))
	if err != nil {
		return err
	}
	for _, x := range fp {
		select {
		case <-s.stop:
			_ = txn.Abort()
			return errStopped
		case <-tick.C:
		}
		if err := txn.Read(ctx, x); err != nil {
			_ = txn.Abort()
			return err
		}
	}
	return txn.Write(ctx)
}

// halt stops the stragglers, aborting any in flight, and returns their
// tally.
func (s *stragglers) halt() tally {
	if s == nil {
		return tally{}
	}
	close(s.stop)
	s.wg.Wait()
	return s.tally
}
