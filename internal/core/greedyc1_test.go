package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// refGreedyC1 is GreedyC1 as the definition states it: scan the
// candidates, delete any that passes CheckC1 (the definition-level
// oracle), and rescan until a whole scan deletes nothing.
type refGreedyC1 struct{ newestFirst bool }

func (refGreedyC1) Name() string { return "ref-greedy-c1" }

func (p refGreedyC1) Sweep(sw *Sweep) {
	for {
		ids := sw.Completed()
		if p.newestFirst {
			slices.Reverse(ids)
		}
		progress := false
		for _, id := range ids {
			if sw.CheckC1(id) && sw.Delete(id) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// selfWitnessGreedyC1 runs GreedyC1's scan with a mutant index check that
// forgets to skip the candidate's own slot, so every candidate witnesses
// its own accesses. The differential must catch it.
type selfWitnessGreedyC1 struct{}

func (selfWitnessGreedyC1) Name() string { return "greedy-c1-self-witness-MUTANT" }

func (selfWitnessGreedyC1) Sweep(sw *Sweep) {
	greedyC1Sweep(sw, false, func(x *c1Index, s *Scheduler, t *TxnState) bool {
		own := x.row(t.ref)
		if isZero(own) {
			return true
		}
		for e, need := range t.Access {
			clear(x.acc)
			ws := s.ents[e]
			if x.covers(own, ws.writers, graph.NoRef) {
				continue
			}
			if need == model.WriteAccess || !x.covers(own, ws.readers, graph.NoRef) {
				return false
			}
		}
		return true
	})
}

// diffMode is one scheduler configuration of the differential.
type diffMode struct {
	name        string
	newestFirst bool
	manual      bool // SweepManual, with SweepNow at random points
	everyStep   bool // SweepEveryStep
	cross       bool // sub-transactions, labels, pins, scripted retirement
	// wide keeps ~100 transactions active at once, so index rows span
	// more than one 64-bit word.
	wide bool
}

var diffModes = []diffMode{
	{name: "oldest/auto"},
	{name: "newest/auto", newestFirst: true},
	{name: "oldest/every-step", everyStep: true},
	{name: "newest/manual", newestFirst: true, manual: true},
	{name: "oldest/manual", manual: true},
	{name: "oldest/auto/cross", cross: true},
	{name: "newest/manual/cross", newestFirst: true, manual: true, cross: true},
	{name: "oldest/manual/wide", manual: true, wide: true},
}

// runGreedyDiff drives one random schedule through two schedulers in
// lockstep, one under got and one under want, and returns the first
// divergence: a different step outcome, Result.Deleted, SweepNow output,
// retained set, or graph. The schedule mixes short transactions with
// stragglers (long transactions stepped rarely, which pin their
// successors), and in cross mode cross sub-transactions whose labels and
// prepare pins gate deletion, with labels retired at random.
// On success it reports the want side's Stats.
func runGreedyDiff(seed int64, m diffMode, got, want Policy) (Stats, error) {
	ops, entities, maxLive, beginPct := 300, 10, 6, 18
	if m.wide {
		ops, entities, maxLive, beginPct = 400, 40, 130, 45
	}
	type side struct {
		s  *Scheduler
		tr *fakeTracker
	}
	mk := func(p Policy) side {
		cfg := Config{Policy: p, SweepManual: m.manual, SweepEveryStep: m.everyStep}
		var tr *fakeTracker
		if m.cross {
			tr = &fakeTracker{retired: map[model.TxnID]bool{}, veto: map[reachArc]bool{}}
			cfg.Cross = tr
		}
		return side{NewScheduler(cfg), tr}
	}
	a, b := mk(got), mk(want)
	rng := newRand(seed)

	type plan struct {
		id                         model.TxnID
		reads, write               []model.Entity
		straggler, cross, prepared bool
	}
	var live []*plan
	var committedCross []model.TxnID
	next := model.TxnID(1)
	drop := func(p *plan) {
		live = slices.DeleteFunc(live, func(q *plan) bool { return q == p })
	}
	sameResult := func(op int, what string, ra, rb Result) error {
		if ra.Accepted != rb.Accepted || ra.Aborted != rb.Aborted || ra.CompletedTxn != rb.CompletedTxn ||
			ra.CrossVeto != rb.CrossVeto || !slices.Equal(ra.Deleted, rb.Deleted) {
			return fmt.Errorf("op %d %s: results diverge: got %+v, want %+v", op, what, ra, rb)
		}
		return nil
	}

	for op := 0; op < ops; op++ {
		var err error
		switch roll := rng.Intn(100); {
		case len(live) == 0 || (roll < beginPct && len(live) < maxLive):
			p := &plan{id: next, straggler: rng.Intn(6) == 0, cross: m.cross && rng.Intn(3) == 0}
			next++
			nReads := 1 + rng.Intn(3)
			if p.straggler {
				nReads = 6 + rng.Intn(8)
			}
			for range nReads {
				p.reads = append(p.reads, model.Entity(rng.Intn(entities)))
			}
			for range rng.Intn(3) {
				p.write = append(p.write, model.Entity(rng.Intn(entities)))
			}
			var ra, rb Result
			var ea, eb error
			if p.cross {
				ra, ea = a.s.BeginCross(model.Begin(p.id))
				rb, eb = b.s.BeginCross(model.Begin(p.id))
			} else {
				ra, ea = a.s.Apply(model.Begin(p.id))
				rb, eb = b.s.Apply(model.Begin(p.id))
			}
			if ea != nil || eb != nil {
				return Stats{}, fmt.Errorf("op %d begin T%d: %v / %v", op, p.id, ea, eb)
			}
			err = sameResult(op, "begin", ra, rb)
			live = append(live, p)
		case m.manual && roll >= 92:
			da := slices.Clone(a.s.SweepNow())
			if db := b.s.SweepNow(); !slices.Equal(da, db) {
				err = fmt.Errorf("op %d SweepNow: got %v, want %v", op, da, db)
			}
		case m.cross && roll >= 88 && len(committedCross) > 0:
			// The registry retires a decided cross transaction: its label
			// dies on both sides at once.
			id := committedCross[rng.Intn(len(committedCross))]
			a.tr.retired[id], b.tr.retired[id] = true, true
		default:
			p := live[rng.Intn(len(live))]
			if p.straggler && rng.Intn(8) != 0 {
				continue // stragglers are rarely scheduled
			}
			switch {
			case p.prepared:
				if rng.Intn(5) == 0 {
					ea, eb := a.s.AbortTxn(p.id), b.s.AbortTxn(p.id)
					if ea != nil || eb != nil {
						return Stats{}, fmt.Errorf("op %d abort T%d: %v / %v", op, p.id, ea, eb)
					}
				} else {
					ra, ea := a.s.CommitPrepared(p.id)
					rb, eb := b.s.CommitPrepared(p.id)
					if ea != nil || eb != nil {
						return Stats{}, fmt.Errorf("op %d commit T%d: %v / %v", op, p.id, ea, eb)
					}
					err = sameResult(op, "commit-prepared", ra, rb)
					committedCross = append(committedCross, p.id)
				}
				drop(p)
			case len(p.reads) > 0:
				step := model.Read(p.id, p.reads[0])
				p.reads = p.reads[1:]
				ra, rb := a.s.MustApply(step), b.s.MustApply(step)
				err = sameResult(op, step.String(), ra, rb)
				if !ra.Accepted {
					drop(p)
				}
			case p.cross:
				step := model.WriteFinal(p.id, p.write...)
				va, ea := a.s.PrepareFinal(step)
				vb, eb := b.s.PrepareFinal(step)
				if ea != nil || eb != nil || va != vb {
					return Stats{}, fmt.Errorf("op %d prepare T%d: votes %v / %v, errs %v / %v", op, p.id, va, vb, ea, eb)
				}
				if va == VoteYes {
					p.prepared = true
					break
				}
				// A no vote: the coordinator aborts every participant.
				if ea, eb := a.s.AbortTxn(p.id), b.s.AbortTxn(p.id); ea != nil || eb != nil {
					return Stats{}, fmt.Errorf("op %d abort after no vote T%d: %v / %v", op, p.id, ea, eb)
				}
				drop(p)
			default:
				step := model.WriteFinal(p.id, p.write...)
				ra, rb := a.s.MustApply(step), b.s.MustApply(step)
				err = sameResult(op, step.String(), ra, rb)
				drop(p)
			}
		}
		if err != nil {
			return Stats{}, err
		}
		if ka, kb := a.s.CompletedTxns(), b.s.CompletedTxns(); !slices.Equal(ka, kb) {
			return Stats{}, fmt.Errorf("op %d: retained sets diverge: got %v, want %v", op, ka, kb)
		}
		if !a.s.Graph().Equal(b.s.Graph()) {
			return Stats{}, fmt.Errorf("op %d: graphs diverge:\ngot\n%vwant\n%v", op, a.s.Graph(), b.s.Graph())
		}
	}
	return b.s.Stats(), nil
}

// TestGreedyC1MatchesDefinition pins the C1 index to the definition:
// GreedyC1 must make exactly the deletions of the rescan-until-quiet loop
// over CheckC1, step for step, across scan orders, sweep modes, and cross
// gating.
func TestGreedyC1MatchesDefinition(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for _, m := range diffModes {
		t.Run(m.name, func(t *testing.T) {
			var total Stats
			for seed := int64(1); seed <= int64(seeds); seed++ {
				ix := GreedyC1{NewestFirst: m.newestFirst}
				st, err := runGreedyDiff(seed, m, ix, refGreedyC1{newestFirst: m.newestFirst})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				total.Merge(st)
			}
			// A differential over schedules that never delete, or never
			// have to refuse a deletion, proves nothing.
			if total.Deleted == 0 || total.Completed == total.Deleted {
				t.Fatalf("schedules too tame: completed %d, deleted %d", total.Completed, total.Deleted)
			}
			t.Logf("%d schedules: completed %d, deleted %d, sweeps %d", seeds, total.Completed, total.Deleted, total.Sweeps)
		})
	}
}

// TestGreedyC1DifferentialCatchesMutant proves the differential bites: a
// seeded index bug (the candidate counted as its own witness) must make
// it fail.
func TestGreedyC1DifferentialCatchesMutant(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 10; seed++ {
		if _, err := runGreedyDiff(seed, diffModes[0], selfWitnessGreedyC1{}, refGreedyC1{}); err != nil {
			caught++
		}
	}
	t.Logf("mutant caught on %d of 10 schedules", caught)
	if caught == 0 {
		t.Fatal("differential passed a GreedyC1 that counts the candidate as its own witness")
	}
}

// TestC1IndexRowsMatchDefinition checks the index row by row, independent
// of which bit each active got: with ~200 actives (rows of four words),
// every completed transaction's row must name exactly its
// ActiveTightPredecessors, and holds must agree with CheckC1 (sampled:
// the definition is the slow side).
func TestC1IndexRowsMatchDefinition(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := NewScheduler(Config{}) // never deletes: every row stays checkable
		rng := newRand(seed)
		for id := model.TxnID(1); id <= 600; id++ {
			s.MustApply(model.Begin(id))
			// A third of the transactions stay active and pin their
			// successors; rejected reads abort.
			if s.MustApply(model.Read(id, model.Entity(rng.Intn(60)))).Accepted && rng.Intn(3) != 0 {
				s.MustApply(model.WriteFinal(id, model.Entity(rng.Intn(60))))
			}
			if id%200 == 0 {
				checkC1Rows(t, s, id >= 400)
			}
		}
	}
}

// checkC1Rows builds s's C1 index and compares it with the definition.
func checkC1Rows(t *testing.T, s *Scheduler, wide bool) {
	t.Helper()
	x := &s.c1
	x.build(s)
	if wide && x.words < 2 {
		t.Fatalf("only %d actives: rows never span words", len(x.actives))
	}
	for k, ti := range s.CompletedTxns() {
		var got []model.TxnID
		for i, a := range x.actives {
			if x.row(s.txns[ti].ref)[i/64]&(1<<(i%64)) != 0 {
				got = append(got, s.g.IDOf(a))
			}
		}
		slices.Sort(got)
		if want := ActiveTightPredecessors(s, s.g, ti); !slices.Equal(got, want) {
			t.Fatalf("T%d: row names %v, active tight predecessors are %v", ti, got, want)
		}
		if k%5 != 0 {
			continue
		}
		if want, _ := s.CheckC1(ti); x.holds(s, s.txns[ti]) != want {
			t.Fatalf("T%d: index says C1=%v, CheckC1 says %v", ti, !want, want)
		}
	}
}
