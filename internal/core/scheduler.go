// Package core implements the paper's primary contribution: the basic
// conflict-graph scheduler of Section 2 (Rules 1–3, preventive variant and
// the optimistic certification variant), the deletion conditions of
// Sections 3–4 (Lemma 1, Theorem 1's C1, Theorem 4's C2, Corollary 1's
// noncurrent rule), deletion policies built on them, the NP-complete
// maximum-safe-subset solver of Theorem 5, and the adversarial continuation
// of Theorem 1's necessity proof.
//
// Model recap (paper Section 2): a transaction BEGINs, performs read steps,
// and ends with one final atomic write step that installs its whole write
// set and completes (and commits) it. The scheduler maintains a conflict
// graph; a step that would create a cycle is rejected and its transaction
// aborts. Deleting a completed transaction replaces its node by
// predecessor×successor arcs and forgets its read/write sets.
package core

import (
	"fmt"
	"slices"

	"repro/internal/emit"
	"repro/internal/graph"
	"repro/internal/model"
)

// Stats accumulates scheduler counters for the experiment harness.
type Stats struct {
	Begins     int64
	Reads      int64
	Writes     int64 // final write steps accepted
	Accepted   int64 // accepted steps of any kind
	Rejected   int64 // rejected steps (each aborts its transaction)
	Aborts     int64
	Completed  int64
	Deleted    int64 // nodes removed by the deletion policy
	Sweeps     int64 // policy sweeps executed
	PeakNodes  int
	PeakArcs   int
	PeakKept   int   // peak number of completed transactions retained
	KeptSum    int64 // sum over steps of retained completed transactions
	KeptSample int64 // number of samples in KeptSum
}

// AvgKept returns the average number of completed transactions retained in
// the graph per accepted step.
func (s *Stats) AvgKept() float64 {
	if s.KeptSample == 0 {
		return 0
	}
	return float64(s.KeptSum) / float64(s.KeptSample)
}

// Merge adds o's counters into s. The Peak* fields add too, which makes a
// merged snapshot report an upper bound on the true global peak (per-shard
// peaks need not be simultaneous); exact global peaks would require a
// synchronized clock across shards.
func (s *Stats) Merge(o Stats) {
	s.Begins += o.Begins
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Aborts += o.Aborts
	s.Completed += o.Completed
	s.Deleted += o.Deleted
	s.Sweeps += o.Sweeps
	s.PeakNodes += o.PeakNodes
	s.PeakArcs += o.PeakArcs
	s.PeakKept += o.PeakKept
	s.KeptSum += o.KeptSum
	s.KeptSample += o.KeptSample
}

// TxnState is the scheduler's record of one transaction. Deleting the
// transaction erases this record: that is the storage the paper's
// conditions let us reclaim. Records are pooled: once a transaction is
// deleted or aborted its TxnState (and maps) are recycled for a future
// BEGIN, so steady-state churn allocates nothing.
type TxnState struct {
	ID     model.TxnID
	Status model.Status
	Access model.AccessSet
	// accessSeq holds, per accessed entity, the sequence number of the
	// latest access; together with Scheduler.current it decides currency
	// (Corollary 1). An inline slice, not a map: it is read only by whole
	// scans, and a retained record is the paper's unit of storage.
	accessSeq []accessMark
	BeginSeq  int64
	EndSeq    int64
	// ref is the transaction's slot in the graph arena, valid while the
	// node is present (active or retained completed).
	ref graph.Ref
	// isCross marks a sub-transaction of a logical cross-shard transaction
	// (see subtxn.go); prepared marks it voted-yes-but-undecided.
	isCross  bool
	prepared bool
}

// accessMark is one entry of TxnState.accessSeq.
type accessMark struct {
	x   model.Entity
	seq int64
}

// currentWrite is the schedule-level current value of an entity: the
// sequence number of its latest committed write, and the writer.
type currentWrite struct {
	seq    int64
	writer model.TxnID
}

// entityIdx is one entity's entry in the scheduler's entity index.
type entityIdx struct {
	readers, writers []graph.Ref
}

// Config configures a Scheduler.
type Config struct {
	// Policy is the deletion policy; nil means never delete (NoGC).
	Policy Policy
	// SweepEveryStep forces a policy sweep after every accepted step. By
	// default the scheduler sweeps only after completions and aborts,
	// which is sufficient: in the basic model, BEGIN adds an isolated node
	// and an accepted read only adds arcs whose head is the active reader,
	// so neither can create a new active-tight-predecessor relationship or
	// a new completed witness, hence cannot change any C1 verdict.
	SweepEveryStep bool
	// SweepManual disables the automatic post-step sweeps entirely: the
	// policy runs only when the owner calls SweepNow. Engines use this to
	// amortize GC off the hot path (sweeping between batches instead of
	// after every completion). Safe for any correct policy: C1/C2 are
	// evaluated on the graph as it stands whenever the sweep runs.
	SweepManual bool
	// OnDelete, if non-nil, is invoked for every node the policy deletes.
	OnDelete func(model.TxnID)
	// MaxSafeBudget bounds the branch-and-bound search of MaxSafeExact
	// (nodes explored); 0 means DefaultMaxSafeBudget.
	MaxSafeBudget int
	// Cross, if non-nil, enables sub-transactions on this scheduler and
	// names the engine's cross-arc registry (see subtxn.go). Purely local
	// schedulers leave it nil and pay nothing.
	Cross CrossTracker
	// Emitter, if non-nil, receives a lifecycle event for every begin,
	// accepted step, veto, completion, abort, prepare vote, and sweep. The
	// emitter must never block (see internal/emit); a nil emitter costs one
	// predictable branch per step.
	Emitter emit.Emitter
}

// Result reports the effect of one step.
type Result struct {
	Step     model.Step
	Accepted bool
	// Aborted is the transaction aborted by a rejected step (NoTxn
	// otherwise).
	Aborted model.TxnID
	// CompletedTxn is set when the step completed its transaction.
	CompletedTxn model.TxnID
	// Deleted lists nodes removed by the policy during the post-step sweep.
	Deleted []model.TxnID
	// CrossVeto marks a rejection caused by the cross-arc registry (the
	// step would have closed a cycle spanning shard graphs) rather than a
	// cycle in this shard's own graph. Engines map the two onto distinct
	// typed errors.
	CrossVeto bool
}

// Scheduler is the paper's basic (preventive) conflict-graph scheduler.
type Scheduler struct {
	g    *graph.Graph
	txns map[model.TxnID]*TxnState
	// txnDeletes and entDeletes count deletions from txns and ents for
	// graph.ShrinkMap: both maps churn with every transaction.
	txnDeletes, entDeletes int
	// ents is the entity index: ents[x] lists the transactions currently
	// in the graph that have read/written x — the information Rules 2 and
	// 3 consult. Deleting a transaction removes it from these lists: its
	// access sets are forgotten. The lists hold arena slots (graph.Ref),
	// not IDs, so the per-step cycle test never touches the id→slot map.
	ents map[model.Entity]entityIdx
	// idxFree recycles the backing arrays of emptied entity lists: forget
	// deletes an entity whose last occupant leaves (the paper's
	// storage-reclamation point applied to the entity index), and without
	// this list every re-touch of such an entity would allocate a fresh
	// one-element slice. Bounded; see forget.
	idxFree [][]graph.Ref
	// current tracks the schedule-level current value per entity (for
	// Corollary 1's noncurrent rule); its writer may name a deleted
	// transaction, which is precisely what makes the naive noncurrent rule
	// non-compositional.
	current map[model.Entity]currentWrite
	seq     int64
	cfg     Config
	stats   Stats
	// numCompleted and numActive are maintained incrementally so the
	// per-step bookkeeping in afterStep never scans txns.
	numCompleted int
	numActive    int
	// statePool recycles TxnState records (with their access records)
	// across delete/abort → begin. Bounded by statePoolMax.
	statePool []*TxnState
	// compScratch backs Sweep.Completed's candidate list, so the policy
	// sweep loop (which rebuilds the list every deletion round) allocates
	// nothing in steady state. manualSweep and its deleted buffer are the
	// reused Sweep handle of SweepNow for the same reason.
	compScratch []model.TxnID
	manualSweep Sweep
	// autoSweep is the same reuse for the per-step policy sweep in
	// afterStep: one Sweep handle (and deleted buffer) per scheduler, not
	// one heap allocation per completion. Result.Deleted aliases its
	// buffer until the next sweep, matching SweepNow's contract.
	autoSweep Sweep
	// c1 is GreedyC1's per-sweep C1 index (c1index.go), reused across
	// sweeps.
	c1 c1Index

	// Cross-shard bookkeeping (subtxn.go), all indexed by arena slot.
	// crossID names the logical cross transaction occupying a slot as a
	// sub-transaction (NoTxn otherwise); labels holds each slot's
	// cross-ancestor label set. numCross and numLabeled gate the hot path:
	// both zero means no label work can be needed.
	crossID    []model.TxnID
	labels     [][]model.TxnID
	numCross   int
	numLabeled int
	// inLabels and crossStack are propagation scratch.
	inLabels   []model.TxnID
	crossStack []graph.Ref
}

// NewScheduler returns an empty scheduler with the given configuration.
func NewScheduler(cfg Config) *Scheduler {
	return &Scheduler{
		g:       graph.New(),
		txns:    make(map[model.TxnID]*TxnState),
		ents:    make(map[model.Entity]entityIdx),
		current: make(map[model.Entity]currentWrite),
		cfg:     cfg,
	}
}

// Graph exposes the current (reduced) conflict graph. Callers must treat
// it as read-only.
func (s *Scheduler) Graph() *graph.Graph { return s.g }

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Seq returns the number of steps processed so far.
func (s *Scheduler) Seq() int64 { return s.seq }

// Txn returns the live record for id, or nil if the transaction is
// unknown, aborted, or deleted.
func (s *Scheduler) Txn(id model.TxnID) *TxnState { return s.txns[id] }

// Status implements StateView.
func (s *Scheduler) Status(id model.TxnID) model.Status {
	if t, ok := s.txns[id]; ok {
		return t.Status
	}
	return model.StatusAborted
}

// Access implements StateView.
func (s *Scheduler) Access(id model.TxnID) model.AccessSet {
	if t, ok := s.txns[id]; ok {
		return t.Access
	}
	return nil
}

// ActiveTxns returns the IDs of active transactions, ascending.
func (s *Scheduler) ActiveTxns() []model.TxnID {
	var out []model.TxnID
	for id, t := range s.txns {
		if t.Status == model.StatusActive {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// CompletedTxns returns the IDs of retained completed transactions,
// ascending. The slice is freshly allocated; the policy sweep path uses
// completedAppend with a scratch buffer instead.
func (s *Scheduler) CompletedTxns() []model.TxnID {
	return s.completedAppend(nil)
}

// completedAppend appends the retained completed transaction IDs to dst,
// ascending.
func (s *Scheduler) completedAppend(dst []model.TxnID) []model.TxnID {
	mark := len(dst)
	for id, t := range s.txns {
		if t.Status == model.StatusCompleted {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst[mark:])
	return dst
}

// NumCompleted returns the number of retained completed transactions.
// The count is maintained incrementally, so this is O(1).
func (s *Scheduler) NumCompleted() int { return s.numCompleted }

// ActiveInfo names one active transaction for the retention governor's
// straggler selection: its ID, its BeginSeq incarnation, and its age in
// scheduler steps (Seq - BeginSeq) — the schedule-time measure of how long
// the transaction has been holding arcs open.
type ActiveInfo struct {
	ID       model.TxnID
	BeginSeq int64
	Age      int64
}

// OldestActives returns up to k active transactions ordered oldest-first by
// BeginSeq. Prepared sub-transactions are excluded: a YES vote pins the
// node until the coordinator decides, so aborting one out from under 2PC is
// never the governor's call. The scan is O(numActive) with an insertion
// pass bounded by k; the governor calls this off the per-step path, only
// when the retention watermark is crossed.
func (s *Scheduler) OldestActives(k int) []ActiveInfo {
	if k <= 0 || s.numActive == 0 {
		return nil
	}
	out := make([]ActiveInfo, 0, k)
	for id, t := range s.txns {
		if t.Status != model.StatusActive || t.prepared {
			continue
		}
		info := ActiveInfo{ID: id, BeginSeq: t.BeginSeq, Age: s.seq - t.BeginSeq}
		if len(out) < k {
			out = append(out, info)
		} else if info.BeginSeq < out[len(out)-1].BeginSeq {
			out[len(out)-1] = info
		} else {
			continue
		}
		for i := len(out) - 1; i > 0 && out[i].BeginSeq < out[i-1].BeginSeq; i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}

// NumActive returns the number of active transactions, O(1).
func (s *Scheduler) NumActive() int { return s.numActive }

// Apply processes one step, returning its Result. A protocol violation
// (unknown transaction, duplicate BEGIN, step after completion, a
// multiple-write-model step kind) yields an error and leaves the state
// unchanged.
//
//txgc:hotpath
func (s *Scheduler) Apply(step model.Step) (Result, error) {
	switch step.Kind {
	case model.KindBegin:
		return s.begin(step)
	case model.KindRead:
		return s.read(step)
	case model.KindWriteFinal:
		return s.writeFinal(step)
	default:
		//lint:ignore hotpath-fmt protocol-violation path: a malformed step already left the hot path, and the error text is the API
		return Result{}, fmt.Errorf("core: step kind %v not part of the basic model", step.Kind)
	}
}

// MustApply is Apply that panics on protocol errors; for tests and
// hand-built schedules.
func (s *Scheduler) MustApply(step model.Step) Result {
	res, err := s.Apply(step)
	if err != nil {
		panic(err)
	}
	return res
}

func (s *Scheduler) begin(step model.Step) (Result, error) {
	id := step.Txn
	if _, ok := s.txns[id]; ok {
		//lint:ignore hotpath-fmt protocol-violation path: duplicate BEGIN is a client bug, not steady state
		return Result{}, fmt.Errorf("core: duplicate BEGIN for T%d", id)
	}
	s.seq++
	// Rule 1: add an isolated node. A fresh node can never create a cycle.
	s.txns[id] = s.acquireState(id, s.g.AddNodeRef(id))
	s.numActive++
	s.stats.Begins++
	s.stats.Accepted++
	s.emit(emit.KindBegin, emit.ClassOK, id, s.seq, 0)
	res := Result{Step: step, Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}
	s.afterStep(&res, false)
	return res, nil
}

func (s *Scheduler) read(step model.Step) (Result, error) {
	t, err := s.activeTxn(step.Txn)
	if err != nil {
		return Result{}, err
	}
	s.seq++
	x := step.Entity
	// Rule 2: arcs from every node that has written x into the reader.
	g := s.g
	g.ResetTargets()
	for _, w := range s.ents[x].writers {
		if w != t.ref {
			g.MarkTarget(w)
		}
	}
	// A cycle appears iff the reader already reaches one of the tails.
	if g.ReachesAnyTarget(t.ref) {
		return s.reject(step, t, false), nil
	}
	// Cross-shard cycle test: labels arriving at a sub-node are inter-shard
	// arcs; a registry veto rejects the read like a local cycle.
	if !s.crossCollect(t) {
		return s.reject(step, t, true), nil
	}
	g.LinkTargetsTo(t.ref)
	s.noteAccess(t, x, model.ReadAccess)
	if !s.crossFlood(t) {
		return s.reject(step, t, true), nil
	}
	s.stats.Reads++
	s.stats.Accepted++
	s.emit(emit.KindAccept, emit.ClassOK, t.ID, t.BeginSeq, 0)
	res := Result{Step: step, Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}
	s.afterStep(&res, false)
	return res, nil
}

func (s *Scheduler) writeFinal(step model.Step) (Result, error) {
	t, err := s.activeTxn(step.Txn)
	if err != nil {
		return Result{}, err
	}
	s.seq++
	// Rule 3: for every written entity, arcs from every prior reader or
	// writer of it into the writer.
	g := s.g
	g.ResetTargets()
	s.markAccessors(t, step.Entities)
	if g.ReachesAnyTarget(t.ref) {
		return s.reject(step, t, false), nil
	}
	if !s.crossCollect(t) {
		return s.reject(step, t, true), nil
	}
	g.LinkTargetsTo(t.ref)
	if !s.crossFlood(t) {
		// The write's new arcs pushed a label into a cross sub-node and the
		// registry vetoed: the step would close a cycle spanning shard
		// graphs. Reject it before any access bookkeeping lands — in
		// particular current must never name a write that failed, or
		// Corollary 1's noncurrency test would see a phantom overwrite.
		return s.reject(step, t, true), nil
	}
	for _, x := range step.Entities {
		s.noteAccess(t, x, model.WriteAccess)
		s.current[x] = currentWrite{seq: s.seq, writer: t.ID}
	}
	t.Status = model.StatusCompleted
	t.EndSeq = s.seq
	s.numActive--
	s.numCompleted++
	s.stats.Writes++
	s.stats.Accepted++
	s.stats.Completed++
	s.emit(emit.KindCommit, emit.ClassOK, t.ID, t.BeginSeq, 0)
	res := Result{Step: step, Accepted: true, Aborted: model.NoTxn, CompletedTxn: t.ID}
	s.afterStep(&res, true)
	return res, nil
}

func (s *Scheduler) activeTxn(id model.TxnID) (*TxnState, error) {
	t, ok := s.txns[id]
	if !ok {
		//lint:ignore hotpath-fmt protocol-violation path: every accepted step takes the ok branch
		return nil, fmt.Errorf("core: step for unknown transaction T%d (no BEGIN, aborted, or deleted)", id)
	}
	if t.Status != model.StatusActive {
		//lint:ignore hotpath-fmt protocol-violation path, as above
		return nil, fmt.Errorf("core: step for %v transaction T%d", t.Status, id)
	}
	if t.prepared {
		//lint:ignore hotpath-fmt protocol-violation path, as above
		return nil, fmt.Errorf("core: step for prepared transaction T%d", id)
	}
	return t, nil
}

// acquireState returns a fresh-or-recycled TxnState for a BEGIN at the
// current sequence number.
func (s *Scheduler) acquireState(id model.TxnID, ref graph.Ref) *TxnState {
	var t *TxnState
	if n := len(s.statePool); n > 0 {
		t = s.statePool[n-1]
		s.statePool = s.statePool[:n-1]
	} else {
		//lint:ignore hotpath-alloc pool miss only: in steady state delete/abort→begin recycles through statePool (up to statePoolMax records), so this branch runs when the live record count climbs past its earlier level, not once per step
		t = &TxnState{Access: make(model.AccessSet)}
	}
	t.ID = id
	t.Status = model.StatusActive
	t.BeginSeq = s.seq
	t.EndSeq = 0
	t.ref = ref
	t.isCross = false
	t.prepared = false
	return t
}

// statePoolMax bounds the TxnState recycle list. A burst of deletions
// (a straggler's retention cascade releasing thousands of records at
// once) must not pin that peak's worth of records for good; beyond the
// bound, released records go to the GC and a later burst re-allocates.
const statePoolMax = 256

// releaseState recycles a TxnState that has been removed from txns. The
// access record is cleared here, at release time: no live code may retain
// an AccessSet of a deleted/aborted transaction.
func (s *Scheduler) releaseState(t *TxnState) {
	t.ref = graph.NoRef
	if len(s.statePool) >= statePoolMax {
		return
	}
	clear(t.Access)
	t.accessSeq = t.accessSeq[:0]
	s.statePool = append(s.statePool, t)
}

func (s *Scheduler) noteAccess(t *TxnState, x model.Entity, a model.Access) {
	prev := t.Access[x]
	if a > prev {
		t.Access[x] = a
	}
	if prev == model.NoAccess {
		t.accessSeq = append(t.accessSeq, accessMark{x: x, seq: s.seq})
	} else {
		for i := len(t.accessSeq) - 1; i >= 0; i-- {
			if t.accessSeq[i].x == x {
				t.accessSeq[i].seq = s.seq
				break
			}
		}
	}
	// First read of x indexes t as a reader; a (final) write indexes it
	// as a writer even if it read x before — Rule 3 consults both.
	if a == model.WriteAccess {
		if prev < model.WriteAccess {
			e := s.ents[x]
			e.writers = s.appendIdx(e.writers, t.ref)
			s.ents[x] = e
		}
	} else if prev == model.NoAccess {
		e := s.ents[x]
		e.readers = s.appendIdx(e.readers, t.ref)
		s.ents[x] = e
	}
}

// appendIdx appends r to an entity list, seeding a fresh list from the
// idxFree recycle list so touching an entity whose entry was reclaimed
// does not allocate.
func (s *Scheduler) appendIdx(rs []graph.Ref, r graph.Ref) []graph.Ref {
	if rs == nil {
		if n := len(s.idxFree); n > 0 {
			rs = s.idxFree[n-1]
			s.idxFree[n-1] = nil
			s.idxFree = s.idxFree[:n-1]
		}
	}
	return append(rs, r)
}

// markAccessors adds every other present reader and writer of the given
// entities to the graph's target set: the arc tails of Rule 3.
func (s *Scheduler) markAccessors(t *TxnState, entities []model.Entity) {
	for _, x := range entities {
		e := s.ents[x]
		for _, r := range e.readers {
			if r != t.ref {
				s.g.MarkTarget(r)
			}
		}
		for _, w := range e.writers {
			if w != t.ref {
				s.g.MarkTarget(w)
			}
		}
	}
}

// reject aborts the acting transaction: the step is refused and the node,
// its arcs, and all its access information are removed. cross marks a
// rejection forced by the cross-arc registry rather than a cycle in this
// shard's own graph.
func (s *Scheduler) reject(step model.Step, t *TxnState, cross bool) Result {
	if cross {
		s.emit(emit.KindCrossVeto, emit.ClassCrossCycle, t.ID, t.BeginSeq, 0)
	} else {
		s.emit(emit.KindVeto, emit.ClassCycle, t.ID, t.BeginSeq, 0)
	}
	s.forget(t)
	s.clearCross(t)
	s.g.RemoveRef(t.ref)
	t.Status = model.StatusAborted
	s.dropTxn(t.ID)
	s.numActive--
	s.releaseState(t)
	s.stats.Rejected++
	s.stats.Aborts++
	res := Result{Step: step, Accepted: false, Aborted: t.ID, CompletedTxn: model.NoTxn, CrossVeto: cross}
	s.afterStep(&res, true)
	return res
}

// forget erases the transaction from the entity index. Its graph node is
// handled separately (RemoveRef on abort, ReduceRef on deletion). An
// entity whose last occupant leaves is deleted outright — the paper's
// storage-reclamation point applies to the entity index too, and a
// long-lived server reading a wide sparse keyspace must not retain an
// entry per entity it ever saw. Hot entities keep non-empty lists, so the
// steady-state append path stays allocation-free.
func (s *Scheduler) forget(t *TxnState) {
	for x, a := range t.Access {
		e := s.ents[x]
		e.readers = graph.DropRef(e.readers, t.ref)
		if a == model.WriteAccess {
			e.writers = graph.DropRef(e.writers, t.ref)
		}
		if len(e.readers) > 0 || len(e.writers) > 0 {
			s.ents[x] = e
			continue
		}
		s.recycleIdx(e.readers)
		s.recycleIdx(e.writers)
		delete(s.ents, x)
		s.ents = graph.ShrinkMap(s.ents, &s.entDeletes)
	}
}

// idxFreeMax bounds the recycle list; beyond it, emptied backing arrays
// are simply released to the GC (a cold keyspace shrinking for good must
// not pin its index storage forever).
const idxFreeMax = 256

// recycleIdx stashes an emptied entity list's backing array for reuse.
func (s *Scheduler) recycleIdx(rs []graph.Ref) {
	if cap(rs) > 0 && len(s.idxFree) < idxFreeMax {
		s.idxFree = append(s.idxFree, rs[:0])
	}
}

// dropTxn removes a departing transaction's record from txns.
func (s *Scheduler) dropTxn(id model.TxnID) {
	delete(s.txns, id)
	s.txns = graph.ShrinkMap(s.txns, &s.txnDeletes)
}

// deleteTxn removes a completed transaction with the paper's reduction:
// splice predecessor×successor arcs and forget the access sets. It is the
// policy-facing primitive and performs no safety check itself.
func (s *Scheduler) deleteTxn(id model.TxnID) error {
	t, ok := s.txns[id]
	if !ok {
		return fmt.Errorf("core: delete of unknown transaction T%d", id)
	}
	if t.Status != model.StatusCompleted {
		return fmt.Errorf("core: delete of %v transaction T%d", t.Status, id)
	}
	s.forget(t)
	s.clearCross(t)
	s.g.ReduceRef(t.ref)
	s.dropTxn(id)
	s.numCompleted--
	s.releaseState(t)
	s.stats.Deleted++
	if s.cfg.OnDelete != nil {
		s.cfg.OnDelete(id)
	}
	return nil
}

// afterStep updates peak statistics and runs the deletion policy.
// sweepEvent is true for the events after which a C1 verdict can change
// (a completion or an abort); see Config.SweepEveryStep.
func (s *Scheduler) afterStep(res *Result, sweepEvent bool) {
	if s.cfg.Policy != nil && !s.cfg.SweepManual && (sweepEvent || s.cfg.SweepEveryStep) {
		sw := &s.autoSweep
		sw.s = s
		sw.justCompleted = res.CompletedTxn
		sw.deleted = sw.deleted[:0]
		s.cfg.Policy.Sweep(sw)
		res.Deleted = sw.deleted
		s.stats.Sweeps++
		s.emit(emit.KindSweep, emit.ClassOK, model.NoTxn, 0, int64(len(sw.deleted)))
	}
	if n := s.g.NumNodes(); n > s.stats.PeakNodes {
		s.stats.PeakNodes = n
	}
	if a := s.g.NumArcs(); a > s.stats.PeakArcs {
		s.stats.PeakArcs = a
	}
	kept := s.numCompleted
	if kept > s.stats.PeakKept {
		s.stats.PeakKept = kept
	}
	s.stats.KeptSum += int64(kept)
	s.stats.KeptSample++
}

// Noncurrent reports whether completed transaction id is noncurrent in the
// sense of Corollary 1: every entity it accessed has been subsequently
// overwritten. This is a property of the schedule, not of the (possibly
// reduced) graph — which is exactly why the naive rule is not
// compositional.
func (s *Scheduler) Noncurrent(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false
	}
	for _, m := range t.accessSeq {
		if m.seq >= s.current[m.x].seq {
			return false // t read or wrote the current value of x
		}
	}
	return true
}

// CurrentWriterPresent reports whether, for every entity the completed
// transaction accessed, the schedule's current writer of that entity is a
// *different* transaction that is still present in the graph. Together
// with noncurrency this restores compositional safety (the present current
// writer is a completed tight successor witness for every active tight
// predecessor, as in Corollary 1's proof).
func (s *Scheduler) CurrentWriterPresent(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok {
		return false
	}
	for x := range t.Access {
		cw, ok := s.current[x]
		if !ok || cw.writer == id {
			return false
		}
		if _, present := s.txns[cw.writer]; !present {
			return false
		}
	}
	return true
}

// CheckC1 evaluates Theorem 1's condition C1 for transaction id against
// the scheduler's current (reduced) graph. See conditions.go.
func (s *Scheduler) CheckC1(id model.TxnID) (bool, *C1Violation) {
	return CheckC1(s, s.g, id)
}

// CheckC2 evaluates Theorem 4's condition C2 for the set of transactions.
func (s *Scheduler) CheckC2(set graph.NodeSet) (bool, *C2Violation) {
	return CheckC2(s, s.g, set)
}

// ForceDelete removes a completed transaction WITHOUT any safety check.
// It exists for the necessity experiments (Theorem 1's adversarial
// continuations require performing a deletion that is known to be unsafe)
// and must never be used by deletion policies.
func (s *Scheduler) ForceDelete(id model.TxnID) error {
	return s.deleteTxn(id)
}

// SweepNow runs the configured deletion policy once, outside the normal
// post-step hook, and returns the transactions it deleted. Owners that set
// Config.SweepManual call this between batches so GC cost is amortized off
// the per-step path. It is a no-op without a policy. The returned slice is
// reused by the next SweepNow on this scheduler; callers that retain it
// across sweeps must copy.
func (s *Scheduler) SweepNow() []model.TxnID {
	if s.cfg.Policy == nil {
		return nil
	}
	sw := &s.manualSweep
	sw.s = s
	sw.justCompleted = model.NoTxn
	sw.deleted = sw.deleted[:0]
	s.cfg.Policy.Sweep(sw)
	s.stats.Sweeps++
	s.emit(emit.KindSweep, emit.ClassOK, model.NoTxn, 0, int64(len(sw.deleted)))
	return sw.deleted
}

// AbortTxn aborts an active transaction as if one of its steps had been
// rejected: the node, its arcs, and its access information are removed.
// Removing an active node never un-breaks a cycle check already passed and
// erases only arcs into/out of a transaction that will never commit, so it
// is always safe. Engines use it for the ABORT decision of a cross-shard
// two-phase commit (a prepared sub-transaction's pin is released with its
// node) and to clean up after disconnected clients.
func (s *Scheduler) AbortTxn(id model.TxnID) error {
	t, ok := s.txns[id]
	if !ok {
		return fmt.Errorf("core: abort of unknown transaction T%d", id)
	}
	if t.Status != model.StatusActive {
		return fmt.Errorf("core: abort of %v transaction T%d", t.Status, id)
	}
	s.emit(emit.KindAbort, emit.ClassTxnAborted, id, t.BeginSeq, 0)
	s.forget(t)
	s.clearCross(t)
	s.g.RemoveRef(t.ref)
	t.Status = model.StatusAborted
	s.dropTxn(id)
	s.numActive--
	s.releaseState(t)
	s.stats.Aborts++
	res := Result{Accepted: false, Aborted: id, CompletedTxn: model.NoTxn}
	s.afterStep(&res, true)
	return nil
}

// emit publishes one lifecycle event if an emitter is configured. The
// emitter never blocks, so this never adds latency to a step.
func (s *Scheduler) emit(k emit.Kind, c emit.Class, txn model.TxnID, inc, n int64) {
	if s.cfg.Emitter != nil {
		s.cfg.Emitter.Emit(emit.Event{Kind: k, Class: c, Txn: txn, Incarnation: inc, N: n})
	}
}

// DeleteIfSafe deletes id iff C1 holds, returning whether it deleted.
func (s *Scheduler) DeleteIfSafe(id model.TxnID) bool {
	if ok, _ := s.CheckC1(id); !ok {
		return false
	}
	if err := s.deleteTxn(id); err != nil {
		return false
	}
	return true
}
