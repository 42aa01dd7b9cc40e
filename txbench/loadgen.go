package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// errConflict marks an attempt aborted by a conflict verdict (a cycle, a
// cross-shard cycle, or the transaction-aborted answer that follows one).
// Such an attempt is retried under a new ID and is not a failure.
var errConflict = errors.New("conflict abort")

// target runs transaction attempts. attempt runs one attempt of in on
// worker w's session and returns nil when it committed, an error wrapping
// errConflict when a conflict verdict aborted it, and any other error when
// it failed. Each worker owns its session; attempt is never called
// concurrently for one w.
type target interface {
	attempt(w int, in *txnInput, tr *tracer) error
}

// tally counts one worker's transactions.
type tally struct {
	commits  int64 // logical transactions committed
	attempts int64 // attempts, retries included
	failed   int64 // attempts that ended in an error other than a conflict
	firstErr error
	lag      hist // open loop: start time minus due time
	backlog  int64
}

func (t *tally) add(o *tally) {
	t.commits += o.commits
	t.attempts += o.attempts
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.lag.merge(&o.lag)
	t.backlog = max(t.backlog, o.backlog)
}

// runTxn runs one logical transaction to commit, retrying conflict aborts.
func runTxn(t target, w int, in *txnInput, tr *tracer, tl *tally) bool {
	root := tr.startTxn()
	defer tr.endTxn(root)
	for a := 1; ; a++ {
		tl.attempts++
		err := t.attempt(w, in, tr)
		if err == nil {
			tl.commits++
			return true
		}
		if errors.Is(err, errConflict) && a < maxAttempts {
			continue
		}
		tl.failed++
		if tl.firstErr == nil {
			tl.firstErr = err
		}
		return false
	}
}

// feed hands out input indexes across phases, so every transaction of a
// run takes the next generated input.
type feed struct {
	in   *inputs
	next atomic.Int64
}

func (f *feed) take() *txnInput {
	i := f.next.Add(1) - 1
	return &f.in.txns[i%int64(len(f.in.txns))]
}

// windows is how many equal windows a closed loop's time is cut into, for
// the steal compensation. It also caps an open loop's latency windows.
const windows = 40

// rate is a closed loop's throughput.
type rate struct {
	tps   float64 // mean window rate, compensated for stolen CPU
	raw   float64 // mean window rate as counted
	steal float64 // share of the host's CPU time stolen over the loop
}

// closedLoop runs one session per worker, each sending its next
// transaction when the previous one commits, for d. Each commit counts in
// the window it completed in, and each window's rate is divided by the
// share of CPU time the hypervisor left the host in that window: on an
// oversubscribed host a second spent running another guest is not a second
// the system had. The throughput is the mean over the windows: under
// stragglers a window's rate swings twentyfold with the sweeps, and a
// median of such windows moves far more from run to run than their mean.
// Transactions still running when the loop closes finish but are not
// counted.
func closedLoop(t target, f *feed, d time.Duration, trs []*tracer) (rate, tally) {
	tallies := make([]tally, len(trs))
	perWin := make([][windows]int64, len(trs))
	var marks [windows + 1][2]int64
	start := time.Now()
	end := start.Add(d)
	win := d / windows
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range marks {
			time.Sleep(time.Until(start.Add(time.Duration(i) * win)))
			marks[i][0], marks[i][1] = hostJiffies()
		}
	}()
	for w := range trs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			for time.Now().Before(end) {
				if runTxn(t, w, f.take(), trs[w], tl) {
					if i := int(time.Since(start) / win); i < windows {
						perWin[w][i]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total tally
	for i := range tallies {
		total.add(&tallies[i])
	}
	raw := make([]float64, windows)
	comp := make([]float64, windows)
	for i := range raw {
		for w := range perWin {
			raw[i] += float64(perWin[w][i])
		}
		raw[i] /= win.Seconds()
		comp[i] = raw[i] / (1 - stealShare(marks[i], marks[i+1]))
	}
	return rate{tps: mean(comp), raw: mean(raw), steal: stealShare(marks[0], marks[windows])}, total
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(a, b [2]int64) float64 {
	if b[0] <= a[0] {
		return 0
	}
	return min(float64(b[1]-a[1])/float64(b[0]-a[0]), 0.9)
}

// minWindowSamples is the fewest arrivals in one latency window: enough
// for its p99 to have ten samples beyond it.
const minWindowSamples = 2000

// latWindows holds commit latencies by window of consecutive arrivals.
type latWindows struct {
	mu  sync.Mutex
	per int64
	h   []hist
}

func newLatWindows(arrivals int64) *latWindows {
	n := min(max(arrivals/minWindowSamples, 1), windows)
	return &latWindows{per: max(arrivals/n, 1), h: make([]hist, n)}
}

func (lw *latWindows) record(arrival, v int64) {
	i := min(arrival/lw.per, int64(len(lw.h)-1))
	lw.mu.Lock()
	lw.h[i].record(v)
	lw.mu.Unlock()
}

// quantile is the median over the windows of each window's q-quantile, so
// one stall moves it by at most one window. Every window must have ten
// samples beyond its q-quantile.
func (lw *latWindows) quantile(q float64) (float64, error) {
	vs := make([]float64, len(lw.h))
	for i := range lw.h {
		v, err := lw.h[i].quantile(q)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		vs[i] = v
	}
	return median(vs), nil
}

// openLoop releases rate·d arrivals on a fixed schedule starting now and
// serves them with one worker per session: at most len(trs) transactions
// are in flight, and arrivals that find every worker busy wait in order
// (the shared arrival counter is the queue). Each commit is timed from the
// arrival's due time, so a stall shows in every arrival it delays. An
// arrival not started by d+grace is dropped and the run marked late.
func openLoop(t target, f *feed, rate float64, d, grace time.Duration, trs []*tracer) (tl tally, lw *latWindows, late bool) {
	total := int64(rate * d.Seconds())
	lw = newLatWindows(total)
	period := float64(time.Second) / rate
	t0 := time.Now().Add(200 * time.Microsecond)
	cutoff := t0.Add(d + grace)
	tallies := make([]tally, len(trs))
	var next atomic.Int64
	var overran atomic.Bool
	var wg sync.WaitGroup
	for w := range trs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			for {
				a := next.Add(1) - 1
				if a >= total {
					return
				}
				due := t0.Add(time.Duration(float64(a) * period))
				waitUntil(due)
				start := time.Now()
				if start.After(cutoff) {
					overran.Store(true)
					return
				}
				tl.lag.record(int64(start.Sub(due)))
				if b := int64(float64(start.Sub(t0))/period) - a; b > tl.backlog {
					tl.backlog = b
				}
				if runTxn(t, w, f.take(), trs[w], tl) {
					lw.record(a, int64(time.Since(due)))
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range tallies {
		tl.add(&tallies[i])
	}
	return tl, lw, overran.Load()
}

// spinWindow is how close to a due time waitUntil stops sleeping and
// yields instead. Go timers on the reference host wake ~1 ms late and a
// raw nanosleep ~60 µs late (with millisecond tails), so pacing on either
// alone releases arrivals late and in bursts.
const spinWindow = 150 * time.Microsecond

// waitUntil returns at due: it sleeps half the remaining wait at a time,
// so a late wake rarely overshoots, then yields the processor until the
// due time passes.
func waitUntil(due time.Time) {
	for {
		r := time.Until(due)
		switch {
		case r <= 0:
			return
		case r > 2*spinWindow:
			ts := syscall.NsecToTimespec(int64(r / 2))
			_ = syscall.Nanosleep(&ts, nil) // an early wake just loops
		default:
			runtime.Gosched()
		}
	}
}

// minProbeSamples is the fewest arrivals a ladder probe releases.
const minProbeSamples = 1200

// ladderStep is the ratio between neighbouring rungs of the rate ladder.
const ladderStep = 1.04

// rung k of the ladder is base·ladderStep^k.
func rung(base float64, k int) float64 { return base * math.Pow(ladderStep, float64(k)) }

// maxRate finds the highest rung of the fixed ladder (anchored at the
// workload's fixed rate) whose open-loop probe commits every transaction,
// keeps p99 latency under limit and does not fall behind its schedule.
// The closed-loop capacity brackets the search: it starts at the rung
// below half the capacity, halving the rate while probes fail, and takes
// the rung above 1.1 times the capacity as failing. It returns the rate
// and every probe's tally.
func maxRate(t target, f *feed, base, capacity float64, limit, probe time.Duration, trs []*tracer, log func(string, ...any)) (float64, tally) {
	k := func(rate float64) int { return int(math.Floor(math.Log(rate/base) / math.Log(ladderStep))) }
	halve := k(2*base) - k(base)
	lo, hi := k(capacity*0.5), k(capacity*1.1)+1
	var all tally
	pass := func(k int) bool {
		// A probe lasts long enough for its p99 to have ten samples beyond.
		d := max(probe, time.Duration(minProbeSamples/rung(base, k)*float64(time.Second)))
		tl, lw, late := openLoop(t, f, rung(base, k), d, limit, trs)
		all.add(&tl)
		p99, err := lw.quantile(0.99)
		ok := !late && tl.failed == 0 && err == nil && p99 <= float64(limit)
		log("probe %.0f txn/s: p99 %.1f us over %d windows, late %v, failed %d: pass %v",
			rung(base, k), p99/1e3, len(lw.h), late, tl.failed, ok)
		return ok
	}
	for tries := 0; !pass(lo); tries++ {
		if tries == 3 {
			return 0, all
		}
		lo, hi = lo-halve, lo
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rung(base, lo), all
}
