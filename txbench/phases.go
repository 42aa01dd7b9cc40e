package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/txdel/client"
)

// setupRuns is how many times an untraced run sets up from scratch;
// setup_s is their median. A set-up takes milliseconds and single ones
// range over 2x within a run; with fifteen, the median of one run moved
// from the next by up to 30%, with fifty-one by up to 20%. They take
// under a second in process and about three seconds for the server.
const setupRuns = 51

// Shares of the run's measuring time (-seconds) each phase takes. The
// untraced run spends all of it in one closed loop, after a warm-up; the
// traced run spends about one and a half times it.
const (
	// warmupShare is the untraced run's closed loop before the timed one,
	// not measured: the heap and the GC pace settle, and stragglers reach
	// their rolling steady state.
	warmupShare = 0.1

	latencyShare = 0.2 // traced run: open loop at the workload's fixed rate, untraced
	ladderShare  = 0.4 // traced run: open-loop probes for e2e.max_rate_tps, untraced
	ladderProbes = 6   // probes a ladder search makes when its first passes

	tracedCapacityShare = 0.15 // traced run: each of the untraced and traced closed loops
	tracedLatencyShare  = 0.2  // traced run: open loop at the fixed rate, traced
	twinShare           = 0.15 // serve-durable traced run: the in-process twin
	scalingShare        = 0.05 // ring rung: each local-session closed loop at 1 and 2 sessions

	// spanEvery samples the transactions whose spans are kept.
	spanEvery = 8
	// ringTrips is the round trips the ring rung times per placement.
	ringTrips = 200000
	// nogcReplayLimit bounds the steps per shard the never-deleting replay
	// re-applies: without deletion every check walks the whole history,
	// so a full replay would take longer than the run.
	nogcReplayLimit = 20000
)

// capacity is the untraced run's measurement: one closed loop over the
// whole measuring time, after an untimed warm-up loop. It reports
// throughput_tps and cpu_us_per_commit, the CPU time the system (client
// and engine, plus the server process when there is one) spent per
// committed transaction. The tally it returns counts both loops.
func (r *run) capacity(t target, f *feed, cpu func() (time.Duration, error)) (*tally, error) {
	_, warm := closedLoop(t, f, r.phase(warmupShare), make([]*tracer, sessions))
	c0, err := cpu()
	if err != nil {
		return nil, err
	}
	rt, tl := closedLoop(t, f, r.phase(1), make([]*tracer, sessions))
	c1, err := cpu()
	if err != nil {
		return nil, err
	}
	r.set("throughput_tps", "txn/s", rt.tps)
	r.set("cpu_us_per_commit", "us", ratio(float64(c1-c0)/1e3, float64(tl.commits)))
	r.note("capacity: %d commits, %.0f txn/s as counted, %.1f%% of host CPU time stolen by the hypervisor; %d commits in the warm-up",
		tl.commits, rt.raw, 100*rt.steal, warm.commits)
	tl.add(&warm)
	return &tl, nil
}

func selfCPUErr() (time.Duration, error) { return selfCPU(), nil }

// tails measures what the untraced run leaves out because it does not
// repeat on a shared host: commit latency at the workload's fixed rate,
// and the highest rate on the ladder that keeps p99 under the limit. They
// are reported as per-layer metrics, ungated.
func (r *run) tails(t target, f *feed, capacity float64) []*tally {
	trs := make([]*tracer, sessions)
	d := r.phase(latencyShare)
	latT, lw, late := openLoop(t, f, r.w.rate, d, d, trs)
	if late {
		r.note("latency phase fell behind its %.0f txn/s schedule by more than %v", r.w.rate, d)
	}
	p50, err50 := lw.quantile(0.5)
	p99, err99 := lw.quantile(0.99)
	if err50 != nil || err99 != nil {
		r.note("latency phase: %v %v", err50, err99)
	}
	r.note("latency phase: %d commits at %.0f txn/s in %d windows, generator lag p99 %.1f us, backlog max %d",
		latT.commits, r.w.rate, len(lw.h), latT.lag.q(0.99)/1e3, latT.backlog)
	r.set("e2e.commit_p50_us", "us", p50/1e3)
	r.set("e2e.commit_p99_us", "us", p99/1e3)
	maxr, ladT := maxRate(t, f, r.w.rate, capacity, r.w.limit, r.phase(ladderShare)/ladderProbes, trs, r.note)
	if maxr == 0 {
		r.note("no rate down to an eighth of the capacity kept p99 under %v", r.w.limit)
	}
	r.set("e2e.max_rate_tps", "txn/s", maxr)
	return []*tally{&latT, &ladT}
}

func sumCommits(tls []*tally) int64 {
	var n int64
	for _, t := range tls {
		n += t.commits
	}
	return n
}

// startStragglers starts the workload's stragglers, if it has any.
func (r *run) startStragglers(db *client.DB, in *inputs) *stragglers {
	if r.w.stragglers == 0 {
		return nil
	}
	return startStragglers(db, in)
}

func (r *run) reconcileInproc(db *client.DB, commits int64) client.Stats {
	st := db.Stats()
	r.check(st.Completed == commits, "client saw %d commits, engine Stats.Completed is %d", commits, st.Completed)
	r.check(st.Shed == 0, "engine shed %d BEGINs", st.Shed)
	return st
}

func (r *run) inprocEndToEnd() error {
	var setups []float64
	var db *client.DB
	var f *feed
	for i := 0; i < setupRuns; i++ {
		if db != nil {
			db.Close()
		}
		var d time.Duration
		var err error
		if db, f, d, err = openInproc(r.w, r.seed, clientConfig(r.w)); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer db.Close()
	r.set("setup_s", "s", median(setups))
	pre, err := r.preload(db)
	if err != nil {
		return err
	}
	mem := startMemSampler()
	st := r.startStragglers(db, f.in)
	capT, err := r.capacity(inproc{db}, f, selfCPUErr)
	if err != nil {
		return err
	}
	stT := st.halt()
	memMed, memMax := mem.halt()
	r.set("mem_peak_mb", "MB", memMed)
	r.note("live heap: peak %.2f MB over the run", memMax)
	tls := []*tally{capT, &stT}
	r.count(tls...)
	r.reconcileInproc(db, pre+sumCommits(tls))
	return db.Close()
}

// preload runs the load phase on an engine whose first transaction has
// committed, and returns the commits so far.
func (r *run) preload(db *client.DB) (int64, error) {
	n, err := preloadInproc(db, r.w)
	r.res.Attempted += 1 + n
	return 1 + n, err
}

// depthSampler samples the engine's per-shard submission backlog.
type depthSampler struct {
	stop, done  chan struct{}
	sum, n, max int64
}

func startDepthSampler(depths func() []int64) *depthSampler {
	s := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			var tot int64
			for _, d := range depths() {
				tot += d
			}
			s.sum += tot
			s.n++
			s.max = max(s.max, tot)
			select {
			case <-s.stop:
				return
			default:
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	return s
}

func (s *depthSampler) halt() (avg float64, peak int64) {
	close(s.stop)
	<-s.done
	return ratio(float64(s.sum), float64(s.n)), s.max
}

// mergeTracers folds the workers' histograms into one tracer and collects
// their spans.
func mergeTracers(trs []*tracer) (*tracer, []span) {
	m := &tracer{}
	var spans []span
	for _, t := range trs {
		m.begin.merge(&t.begin)
		m.read.merge(&t.read)
		m.write.merge(&t.write)
		m.writeLocal.merge(&t.writeLocal)
		m.writeCross.merge(&t.writeCross)
		m.rtt.merge(&t.rtt)
		m.dropped += t.dropped
		spans = append(spans, t.spans...)
	}
	return m, spans
}

func (r *run) clientLayers(m *tracer, attempts, commits int64) {
	r.set("client.begin_us", "us", m.begin.q(0.5)/1e3)
	r.set("client.read_us", "us", m.read.q(0.5)/1e3)
	r.set("client.write_us", "us", m.write.q(0.5)/1e3)
	r.set("client.attempts_per_commit", "count", ratio(float64(attempts), float64(commits)))
}

func (r *run) engineLayers(st client.Stats, depthAvg float64, depthMax int64, m *tracer) {
	r.set("engine.queue_depth_avg", "count", depthAvg)
	r.set("engine.queue_depth_max", "count", float64(depthMax))
	if st.CrossTxns > 0 && m.writeLocal.n > 0 {
		r.set("engine.cross_write_us", "us", (m.writeCross.q(0.5)-m.writeLocal.q(0.5))/1e3)
		r.set("engine.prepares_per_cross", "count", ratio(float64(st.Prepares), float64(st.CrossTxns)))
	} else {
		r.na("engine.cross_write_us", "us", "no cross-partition transactions")
		r.na("engine.prepares_per_cross", "count", "no cross-partition transactions")
	}
	r.set("engine.reject_frac", "frac", ratio(float64(st.Rejected), float64(st.Submitted)))
	r.set("engine.shed", "count", float64(st.Shed))
}

// overhead alternates untraced and traced closed loops in the order
// UTTU UTTU, so a drift over the run weighs on both sides alike, and
// returns the mean throughput of each side and its tally.
func (r *run) overhead(t target, f *feed, trs []*tracer) (tpsU, tpsT float64, untraced, traced tally) {
	order := []bool{false, true, true, false, false, true, true, false}
	d := r.phase(tracedCapacityShare) * 2 / time.Duration(len(order))
	for _, on := range order {
		ws, side, tps := make([]*tracer, sessions), &untraced, &tpsU
		if on {
			ws, side, tps = trs, &traced, &tpsT
		}
		rt, tl := closedLoop(t, f, d, ws)
		*tps += rt.tps / float64(len(order)/2)
		side.add(&tl)
	}
	return tpsU, tpsT, untraced, traced
}

func (r *run) loadgenLayers(lat *tally, tpsUntraced, tpsTraced float64) {
	r.set("loadgen.lag_p99_us", "us", lat.lag.q(0.99)/1e3)
	r.set("loadgen.backlog_max", "count", float64(lat.backlog))
	r.set("trace.overhead_frac", "frac", 1-ratio(tpsTraced, tpsUntraced))
}

func (r *run) shareLayers(spans []span, dropped int64) error {
	sh := selfShares(spans)
	for l := layer(0); l < numLayers; l++ {
		r.set("self."+layerNames[l]+"_frac", "frac", sh[l])
	}
	if dropped > 0 {
		r.note("%d spans past the per-worker cap were not kept", dropped)
	}
	path := filepath.Join(r.workDir, "spans-"+r.w.name+".jsonl")
	r.note("spans: %s", path)
	return writeSpans(path, spans)
}

// ringLayers times the ring mailbox alone, then local-session's closed
// loop with one session and with two: the handoff that makes the second
// core a loss shows in both.
func (r *run) ringLayers() error {
	r.set("ring.rtt_same_core_ns", "ns", ringRTT(1, ringTrips))
	r.set("ring.rtt_cross_core_ns", "ns", ringRTT(2, ringTrips))
	lw, err := workloadByName("local-session")
	if err != nil {
		return err
	}
	for n := 1; n <= 2; n++ {
		db, f, _, err := openInproc(lw, r.seed, clientConfig(lw))
		if err != nil {
			return err
		}
		pre, err := preloadInproc(db, lw)
		if err != nil {
			return err
		}
		rt, tl := closedLoop(inproc{db}, f, r.phase(scalingShare), make([]*tracer, n))
		r.res.Attempted += 1 + pre
		r.count(&tl)
		r.reconcileInproc(db, 1+pre+tl.commits)
		db.Close()
		r.set(fmt.Sprintf("ring.local_%dsession_tps", n), "txn/s", rt.tps)
	}
	return nil
}

func policyOf(name string) (core.Policy, error) {
	if name == "greedy-c1" {
		return core.GreedyC1{}, nil
	}
	return nil, fmt.Errorf("replay rung: no policy %q", name)
}

// flipOne returns a copy of stream with the recorded decision of one step
// inverted, for the self-test that the Theorem 2 check can fail.
func flipOne(stream []recStep, limit int) []recStep {
	out := append([]recStep(nil), stream...)
	for i := min(len(out), limit) / 2; i < len(out); i++ {
		if out[i].Kind != "abort-mark" {
			out[i].Accepted = !out[i].Accepted
			break
		}
	}
	return out
}

// replayLayers is the core rung: it re-applies every shard's recorded
// stream under nogc and under the workload's policy. Deleting under C1 is
// invisible (Theorem 2), so both must reproduce every recorded decision.
func (r *run) replayLayers(trace []byte) error {
	steps, err := parseTrace(bytes.NewReader(trace))
	if err != nil {
		return err
	}
	streams, local := shardStreams(steps, r.w.shards)
	if !local {
		return errors.New("replay rung: the trace has transactions spanning partitions")
	}
	pol, err := policyOf(r.w.policy)
	if err != nil {
		return err
	}
	var checked int64
	for p, s := range streams {
		var nog replayStats
		i, err := replay(s, nil, nogcReplayLimit, &nog)
		r.check(err == nil && i < 0, "Theorem 2: shard %d replayed under nogc departs from the record at step %d (%v)", p, i, err)
		checked += nog.steps
	}
	tp := &timedPolicy{Policy: pol}
	var gr replayStats
	for p, s := range streams {
		i, err := replay(s, tp, 0, &gr)
		r.check(err == nil && i < 0, "Theorem 2: shard %d replayed under %s departs from the record at step %d (%v)", p, r.w.policy, i, err)
	}
	var flip replayStats
	i, _ := replay(flipOne(streams[0], nogcReplayLimit), nil, nogcReplayLimit, &flip)
	r.check(i >= 0, "self-test: a flipped decision went unnoticed by the Theorem 2 check")
	r.note("Theorem 2: %d steps replayed under nogc and %d under %s reproduce every recorded decision; a flipped decision is caught at step %d",
		checked, gr.steps, r.w.policy, i)
	r.note("replay: %d sweeps, longest %.1f us", tp.sweeps, float64(tp.dur.max)/1e3)
	r.set("core.apply_ns", "ns", gr.apply.q(0.5))
	r.set("core.accept_frac", "frac", ratio(float64(gr.accepted), float64(gr.steps)))
	r.set("core.retained_avg", "count", ratio(float64(gr.keptSum), float64(gr.keptSamples)))
	r.set("core.retained_peak", "count", float64(gr.peakKept))
	r.set("core.sweep_p50_us", "us", tp.dur.q(0.5)/1e3)
	r.set("core.sweep_p99_us", "us", tp.dur.q(0.99)/1e3)
	r.set("core.sweeps_per_commit", "count", ratio(float64(tp.sweeps), float64(gr.completed)))
	r.set("core.deleted_per_sweep", "count", ratio(float64(tp.deleted), float64(tp.sweeps)))
	r.set("core.sweep_yield", "frac", ratio(float64(tp.yielding), float64(tp.sweeps)))
	r.set("graph.nodes_peak", "count", float64(gr.peakNodes))
	r.set("graph.arcs_peak", "count", float64(gr.peakArcs))
	es, err := exportRung(gr.snaps)
	if err != nil {
		return err
	}
	r.set("core.export_us", "us", es.export.q(0.5)/1e3)
	return nil
}

func (r *run) storeNA(why string) {
	for _, m := range [][2]string{{"store.append_us", "us"}, {"store.sync_p50_us", "us"}, {"store.sync_p99_us", "us"},
		{"store.syncs_per_commit", "count"}, {"store.checkpoint_us", "us"}, {"store.checkpoints_per_commit", "count"},
		{"store.snapshot_kb", "KB"}, {"store.bytes_written_per_commit", "B"}, {"store.disk_kb", "KB"}} {
		r.na(m[0], m[1], why)
	}
}

func (r *run) serveNA(why string) {
	for _, m := range [][2]string{{"serve.rtt_p50_us", "us"}, {"serve.rtt_p99_us", "us"}, {"serve.wire_us", "us"},
		{"serve.recovery_s", "s"}, {"emit.dropped", "count"}} {
		r.na(m[0], m[1], why)
	}
}

func (r *run) inprocLayers() error {
	// The untraced figures and the tracing overhead, on an engine like the
	// untraced run's.
	db, f, _, err := openInproc(r.w, r.seed, clientConfig(r.w))
	if err != nil {
		return err
	}
	defer db.Close()
	pre, err := r.preload(db)
	if err != nil {
		return err
	}
	st := r.startStragglers(db, f.in)
	clk := newTraceClock()
	trs := newTracers(clk, sessions, spanEvery)
	tpsU, tpsT, untraced, traced := r.overhead(inproc{db}, f, trs)
	tls := r.tails(inproc{db}, f, tpsU)
	stT := st.halt()
	tls = append(tls, &untraced, &traced, &stT)
	r.count(tls...)
	r.reconcileInproc(db, pre+sumCommits(tls))
	db.Close()

	// The traced fixed-rate phase, on an engine that keeps its trace for
	// the CSR referee and the replay rung.
	cfg := clientConfig(r.w)
	cfg.Verify = true
	vdb, vf, _, err := openInproc(r.w, r.seed, cfg)
	if err != nil {
		return err
	}
	defer vdb.Close()
	if pre, err = r.preload(vdb); err != nil {
		return err
	}
	st = r.startStragglers(vdb, vf.in)
	depth := startDepthSampler(vdb.QueueDepths)
	d := r.phase(tracedLatencyShare)
	lat, _, _ := openLoop(inproc{vdb}, vf, r.w.rate, d, d, trs)
	dAvg, dMax := depth.halt()
	stT = st.halt()
	r.count(&lat, &stT)
	stats := r.reconcileInproc(vdb, pre+lat.commits+stT.commits)
	r.check(vdb.Close() == nil, "CSR referee: the accepted subschedule is not conflict serializable")
	var buf bytes.Buffer
	if err := vdb.DumpTrace(&buf); err != nil {
		return err
	}
	m, spans := mergeTracers(trs)
	r.clientLayers(m, traced.attempts+lat.attempts, traced.commits+lat.commits)
	r.serveNA("no TCP layer: the workload runs in process")
	if err := r.ringLayers(); err != nil {
		return err
	}
	r.engineLayers(stats, dAvg, dMax, m)
	if err := r.replayLayers(buf.Bytes()); err != nil {
		return err
	}
	r.storeNA("no durability: the workload runs without a WAL")
	r.loadgenLayers(&lat, tpsU, tpsT)
	return r.shareLayers(spans, m.dropped)
}

// ---------------------------------------------------------------------------
// serve-durable

func (r *run) dataDir(name string) (string, error) {
	dir := filepath.Join(r.workDir, "data", name)
	return dir, os.RemoveAll(dir)
}

// setupServe starts a server on a fresh data directory and returns with
// the first transaction committed; the duration is from the start to its
// BEGIN being accepted.
func (r *run) setupServe(verify bool) (*server, *wireConn, *feed, time.Duration, error) {
	dir, err := r.dataDir("data")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t0 := time.Now()
	f := &feed{in: genInputs(r.w, r.seed)}
	srv, err := startServer(r.serveBin, serverArgs(r.w, dir, verify), dir)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c, err := dial(srv.addr, 1<<40)
	if err != nil {
		srv.kill()
		return nil, nil, nil, 0, err
	}
	var d time.Duration
	err = c.txn(f.take(), nil, func() { d = time.Since(t0) })
	if err != nil {
		c.close()
		srv.kill()
		return nil, nil, nil, 0, fmt.Errorf("first transaction: %w", err)
	}
	return srv, c, f, d, nil
}

// openServe runs the set-ups and returns the last server with one
// connection per session.
func (r *run) openServe(verify bool, runs int) (*server, []*wireConn, *feed, error) {
	var setups []float64
	for i := 0; ; i++ {
		srv, c, f, d, err := r.setupServe(verify)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < runs-1 {
			c.close()
			if err := srv.stop(); err != nil {
				return nil, nil, nil, fmt.Errorf("stop set-up server: %w", err)
			}
			continue
		}
		if runs > 1 {
			r.set("setup_s", "s", median(setups))
		}
		conns := []*wireConn{c}
		for w := 1; w < sessions; w++ {
			cw, err := dial(srv.addr, int64(w+1)<<40)
			if err != nil {
				srv.kill()
				return nil, nil, nil, err
			}
			conns = append(conns, cw)
		}
		return srv, conns, f, nil
	}
}

// reconcileServe checks the client's commit count against the server's
// engine counters and its /metrics session counter.
func (r *run) reconcileServe(srv *server, c *wireConn, commits, sessionCommits int64) (map[string]float64, error) {
	st, err := c.stats()
	if err != nil {
		return nil, err
	}
	m, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	ok := m[`txgc_sessions_total{outcome="ok"}`]
	r.check(st.Completed == commits, "client saw %d commits, server Stats.Completed is %d", commits, st.Completed)
	r.check(int64(ok) == sessionCommits, "client saw %d session commits, server /metrics counts %v", sessionCommits, ok)
	r.check(st.Shed == 0, "server shed %d BEGINs", st.Shed)
	r.check(m["txgc_events_dropped_total"] == 0, "server telemetry dropped %v events", m["txgc_events_dropped_total"])
	return m, nil
}

// crash SIGKILLs the server, restarts it on the same data directory, and
// checks what the restarted server knows against what was acknowledged.
// It returns the time from the restart to the answered hello.
func (r *run) crash(srv *server, conns []*wireConn, verify bool) (time.Duration, error) {
	before, err := srv.scrape()
	if err != nil {
		return 0, err
	}
	var all []acked
	for _, c := range conns {
		c.close()
		all = append(all, c.acked...)
	}
	srv.kill()
	t0 := time.Now()
	srv2, err := startServer(r.serveBin, serverArgs(r.w, srv.dataDir, verify), srv.dataDir)
	if err != nil {
		return 0, err
	}
	c, err := dial(srv2.addr, 3<<40)
	recovery := time.Since(t0)
	if err != nil {
		srv2.kill()
		return 0, err
	}
	notRefused, err := c.dupBegins(all)
	c.close()
	if err != nil {
		srv2.kill()
		return 0, err
	}
	refused := int64(len(all) - len(notRefused))
	retained := int64(before["txgc_retained"])
	var shards, replayed, recovered int64
	line := recoveredLine(srv2.log())
	_, perr := fmt.Sscanf(line, "recovered %d shards: %d records replayed, %d txns retained", &shards, &replayed, &recovered)
	r.note("crash: %d commits acknowledged, %d sub-transactions retained at the kill; after restart %d acknowledged IDs refused as duplicate BEGINs; %s",
		len(all), retained, refused, line)
	// Strict mode makes every acknowledged commit durable, so whatever was
	// retained at the kill is retained after recovery. Both counts are per
	// shard (a cross-partition transaction counts on each shard retaining
	// it), so the refused IDs number between half of them and all of them.
	// IDs the policy deleted before the kill are forgotten by design and
	// may begin again.
	r.check(perr == nil && recovered == retained, "acked-loss: %d sub-transactions retained at the kill, %d after recovery (%v)", retained, recovered, perr)
	r.check(2*refused >= recovered && refused <= recovered, "acked-loss: %d acknowledged IDs refused after restart for %d recovered sub-transactions", refused, recovered)
	stopErr := srv2.stop()
	if verify {
		r.check(stopErr == nil && strings.Contains(srv2.log(), "verify OK"), "server CSR referee after restart: %v: %s", stopErr, srv2.log())
	}
	return recovery, nil
}

func recoveredLine(log string) string {
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, "recovered") {
			return strings.TrimPrefix(l, "txgc-serve: ")
		}
	}
	return "no recovery report"
}

func (r *run) serveEndToEnd() error {
	srv, conns, f, err := r.openServe(false, setupRuns)
	if err != nil {
		return err
	}
	pre, err := conns[0].preload(r.w)
	r.res.Attempted += 1 + pre
	if err != nil {
		srv.kill()
		return err
	}
	cpu := func() (time.Duration, error) {
		c, err := pidCPU(srv.cmd.Process.Pid)
		return c + selfCPU(), err
	}
	capT, err := r.capacity(serveTarget{conns}, f, cpu)
	if err != nil {
		srv.kill()
		return err
	}
	tls := []*tally{capT}
	hwm, err := srv.vmHWMKB()
	if err != nil {
		srv.kill()
		return err
	}
	r.set("mem_peak_mb", "MB", hwm/1024)
	r.count(tls...)
	if _, err := r.reconcileServe(srv, conns[0], 1+pre+sumCommits(tls), 1+sumCommits(tls)); err != nil {
		srv.kill()
		return err
	}
	_, err = r.crash(srv, conns, false)
	return err
}

func (r *run) serveLayers() error {
	srv, conns, f, err := r.openServe(true, 1)
	if err != nil {
		return err
	}
	pre, err := conns[0].preload(r.w)
	r.res.Attempted += 1 + pre
	if err != nil {
		srv.kill()
		return err
	}
	t := serveTarget{conns}
	clk := newTraceClock()
	trs := newTracers(clk, sessions, spanEvery)
	tpsU, tpsT, untraced, traced := r.overhead(t, f, trs)
	tls := r.tails(t, f, tpsU)
	d := r.phase(tracedLatencyShare)
	lat, _, _ := openLoop(t, f, r.w.rate, d, d, trs)
	tls = append(tls, &untraced, &traced, &lat)
	r.count(tls...)
	m, err := r.reconcileServe(srv, conns[0], 1+pre+sumCommits(tls), 1+sumCommits(tls))
	if err != nil {
		srv.kill()
		return err
	}
	disk, err := dirSizeKB(srv.dataDir)
	if err != nil {
		srv.kill()
		return err
	}
	recovery, err := r.crash(srv, conns, true)
	if err != nil {
		return err
	}
	wire, spans := mergeTracers(trs)
	r.set("serve.rtt_p50_us", "us", wire.rtt.q(0.5)/1e3)
	r.set("serve.rtt_p99_us", "us", wire.rtt.q(0.99)/1e3)
	r.set("serve.recovery_s", "s", recovery.Seconds())
	r.set("emit.dropped", "count", m["txgc_events_dropped_total"])
	r.set("store.disk_kb", "KB", disk)

	twinSpans, twinOp, err := r.twin(clk)
	if err != nil {
		return err
	}
	r.set("serve.wire_us", "us", (wire.rtt.q(0.5)-twinOp)/1e3)
	if err := r.ringLayers(); err != nil {
		return err
	}
	r.loadgenLayers(&lat, tpsU, tpsT)
	return r.shareLayers(append(spans, twinSpans...), wire.dropped)
}

// twin runs serve-durable's inputs and configuration in process, with the
// timing store wrapper, for the client, engine, store and core layers the
// wire hides. It returns its spans and its per-operation median.
func (r *run) twin(clk *traceClock) ([]span, float64, error) {
	dir, err := r.dataDir("twin")
	if err != nil {
		return nil, 0, err
	}
	fst, err := store.OpenFile(dir, r.w.shards, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer fst.Close()
	ts := newTimedStore(fst, clk)
	cfg := clientConfig(r.w)
	cfg.Store, cfg.FsyncBatch, cfg.Verify = ts, 1, true
	db, f, _, err := openInproc(r.w, r.seed, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	pre, err := r.preload(db)
	if err != nil {
		return nil, 0, err
	}
	trs := newTracers(clk, sessions, 1)
	depth := startDepthSampler(db.QueueDepths)
	_, tl := closedLoop(inproc{db}, f, r.phase(twinShare), trs)
	dAvg, dMax := depth.halt()
	r.count(&tl)
	stats := r.reconcileInproc(db, pre+tl.commits)
	r.check(db.Close() == nil, "CSR referee (in-process twin): the accepted subschedule is not conflict serializable")

	m, spans := mergeTracers(trs)
	var ops hist
	ops.merge(&m.begin)
	ops.merge(&m.read)
	ops.merge(&m.write)
	r.clientLayers(m, tl.attempts, tl.commits)
	r.engineLayers(stats, dAvg, dMax, m)

	var appendH, syncH, ckptH hist
	var ckptBytes, checkpoints, walBytes, syncs int64
	var snaps [][]byte
	var storeSpans []span
	for _, s := range ts.shards {
		appendH.merge(&s.appendH)
		syncH.merge(&s.syncH)
		ckptH.merge(&s.ckptH)
		ckptBytes += s.ckptBytes
		checkpoints += s.checkpoints
		walBytes += s.Stats().AppendedBytes
		syncs += s.Stats().Fsyncs
		snaps = append(snaps, s.snaps...)
		storeSpans = append(storeSpans, s.spans...)
	}
	commits := float64(stats.Completed)
	r.set("store.append_us", "us", appendH.q(0.5)/1e3)
	r.set("store.sync_p50_us", "us", syncH.q(0.5)/1e3)
	r.set("store.sync_p99_us", "us", syncH.q(0.99)/1e3)
	r.set("store.syncs_per_commit", "count", ratio(float64(syncs), commits))
	r.set("store.checkpoint_us", "us", ckptH.q(0.5)/1e3)
	r.set("store.checkpoints_per_commit", "count", ratio(float64(checkpoints), commits))
	r.set("store.snapshot_kb", "KB", ratio(float64(ckptBytes), float64(checkpoints))/1024)
	r.set("store.bytes_written_per_commit", "B", ratio(float64(walBytes+ckptBytes), commits))

	es, err := exportRung(snaps)
	if err != nil {
		return nil, 0, err
	}
	r.set("core.export_us", "us", es.export.q(0.5)/1e3)
	r.set("core.retained_avg", "count", ratio(es.retainedSum, float64(es.images)))
	r.set("core.retained_peak", "count", float64(es.retainedPeak))
	r.set("graph.nodes_peak", "count", float64(es.nodesPeak))
	r.set("graph.arcs_peak", "count", float64(es.arcsPeak))
	r.set("core.accept_frac", "frac", ratio(float64(stats.Merged.Accepted), float64(stats.Merged.Accepted+stats.Merged.Rejected)))
	r.set("core.sweeps_per_commit", "count", ratio(float64(stats.Sweeps), commits))
	r.set("core.deleted_per_sweep", "count", ratio(float64(stats.Deleted), float64(stats.Sweeps)))
	why := "shard streams carry 2PC sub-transactions; the replay rung re-applies local-only streams"
	r.na("core.apply_ns", "ns", why)
	r.na("core.sweep_p50_us", "us", why)
	r.na("core.sweep_p99_us", "us", why)
	r.na("core.sweep_yield", "frac", why)
	r.note("Theorem 2 replay: not run (%s)", why)

	linkByTxn(spans, storeSpans)
	return append(spans, storeSpans...), ops.q(0.5), nil
}
