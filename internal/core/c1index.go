// The C1 index: how GreedyC1 answers "does Ti satisfy C1?" for every
// candidate of a sweep without re-deriving the condition each time.
//
// CheckC1 (conditions.go) is the definition, and stays the oracle: for
// each active tight predecessor Tj of Ti it recomputes Tj's completed
// tight successors and their strongest accesses, so a sweep over R
// retained transactions with A actives costs O(R² × A) map work. The
// index inverts the quantifiers. At the start of a sweep it runs ONE
// forward tight closure per active transaction and gives every completed
// slot that closure reaches that active's bit, so each completed slot's
// bit row is exactly its set of active tight predecessors. Then
//
//	C1(Ti) ⇔ for each entity x Ti accessed with strength need,
//	         row(Ti) ⊆ ⋃ row(Tk) over Tk ≠ Ti accessing x at least as
//	         strongly as need,
//
// because a Tk carrying Tj's bit is by construction a completed tight
// successor of Tj. The Tk are read straight off the entity indexes:
// x's writers for a write, its writers and readers for a read. Active
// slots have empty rows, so they never witness.
//
// The index is built once per sweep and never rebuilt. Deleting Ti
// reduces its node: arcs from each predecessor to each successor replace
// it, so every path through Ti (a completed, hence legal, intermediate)
// survives as a shorter path and no new path appears. Tight reachability
// among the surviving nodes is unchanged — the observation behind
// Theorem 3 — so every surviving row stays exact; the deletion only
// clears Ti's row, and forget removes Ti from the witness lists.
package core

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// c1Index is the per-sweep bitset index. Its buffers are reused across
// sweeps, so a steady-state sweep allocates nothing.
type c1Index struct {
	// words is the row width in uint64 words: one bit per active
	// transaction, as many words as the sweep has actives.
	words int
	// bits holds one row per arena slot: bits[r*words : (r+1)*words].
	bits []uint64
	// within marks the completed slots, the closures' legal path nodes.
	within []bool
	// actives lists the active slots; active i owns bit i.
	actives []graph.Ref
	// reach is closure scratch; acc is the witness-union scratch row.
	reach []graph.Ref
	acc   []uint64
}

// build runs one forward tight closure per active transaction of s and
// records the reached completed slots in their rows.
//
//txgc:hotpath
func (x *c1Index) build(s *Scheduler) {
	n := s.g.NumSlots()
	x.within = zeroed(x.within, n)
	x.actives = x.actives[:0]
	for _, t := range s.txns {
		if t.Status == model.StatusCompleted {
			x.within[t.ref] = true
		} else {
			x.actives = append(x.actives, t.ref)
		}
	}
	x.words = (len(x.actives) + 63) / 64
	x.bits = zeroed(x.bits, n*x.words)
	x.acc = zeroed(x.acc, x.words)
	for i, a := range x.actives {
		x.reach = s.g.AppendReachWithin(x.reach[:0], a, x.within)
		w, bit := i/64, uint64(1)<<(i%64)
		for _, r := range x.reach {
			x.bits[int(r)*x.words+w] |= bit
		}
	}
}

// row returns slot r's bits: the active tight predecessors of r.
func (x *c1Index) row(r graph.Ref) []uint64 {
	return x.bits[int(r)*x.words : int(r+1)*x.words]
}

// holds reports whether the retained completed transaction t satisfies
// C1 on the current (reduced) graph.
//
//txgc:hotpath
func (x *c1Index) holds(s *Scheduler, t *TxnState) bool {
	own := x.row(t.ref)
	if isZero(own) {
		return true // no active tight predecessor: C1 holds vacuously
	}
	for e, need := range t.Access {
		clear(x.acc)
		ws := s.ents[e]
		if x.covers(own, ws.writers, t.ref) {
			continue
		}
		if need == model.WriteAccess || !x.covers(own, ws.readers, t.ref) {
			return false
		}
	}
	return true
}

// covers ORs the rows of the witnesses ws, skipping self, into x.acc and
// reports whether the union now contains own.
func (x *c1Index) covers(own []uint64, ws []graph.Ref, self graph.Ref) bool {
	for _, w := range ws {
		if w == self {
			continue
		}
		covered := true
		for i, b := range x.row(w) {
			x.acc[i] |= b
			if own[i]&^x.acc[i] != 0 {
				covered = false
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// clearRow drops a deleted slot's row; by the argument at the top of
// this file no other row changes.
func (x *c1Index) clearRow(r graph.Ref) { clear(x.row(r)) }

func isZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// zeroed returns buf resized to n zero elements, reusing its backing
// array (growth is plain append, amortized across sweeps).
func zeroed[T bool | uint64](buf []T, n int) []T {
	buf = buf[:min(n, cap(buf))]
	clear(buf)
	var zero T
	for len(buf) < n {
		buf = append(buf, zero)
	}
	return buf
}
