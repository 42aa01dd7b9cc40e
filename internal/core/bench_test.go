package core

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// stragglerPinned returns a manually swept GreedyC1 scheduler holding one
// active straggler and retained completed transactions pinned behind it.
// The straggler read entity k before victim k wrote it, so it is an active
// tight predecessor of every victim and no other victim writes k: C1 fails
// for all of them and a sweep deletes nothing, leaving the graph fixed.
// Victims also read and write one of 16 shared entities, which chains them
// to each other (deep tight closures) and gives every C1 check a long
// witness list to scan before the private entity fails it.
func stragglerPinned(retained int) *Scheduler {
	s := NewScheduler(Config{Policy: GreedyC1{}, SweepManual: true})
	const straggler = model.TxnID(1)
	s.MustApply(model.Begin(straggler))
	for k := range retained {
		s.MustApply(model.Read(straggler, model.Entity(k)))
	}
	for k := range retained {
		id := model.TxnID(k + 2)
		hot := model.Entity(retained + k%16)
		s.MustApply(model.Begin(id))
		s.MustApply(model.Read(id, hot))
		if res := s.MustApply(model.WriteFinal(id, model.Entity(k), hot)); res.CompletedTxn != id {
			panic(fmt.Sprintf("victim T%d was not accepted", id))
		}
	}
	return s
}

// BenchmarkSweepGreedyC1 is the deletion-sweep rung of the benchmark
// ladder: one GreedyC1 SweepNow over R retained transactions pinned by an
// active straggler. The sweep must not allocate (bench_budget.txt,
// max_sweep_allocs_per_op).
func BenchmarkSweepGreedyC1(b *testing.B) {
	for _, r := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("retained=%d", r), func(b *testing.B) {
			s := stragglerPinned(r)
			s.SweepNow() // size the reused scratch
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if n := len(s.SweepNow()); n != 0 {
					b.Fatalf("sweep deleted %d pinned transactions", n)
				}
			}
			b.StopTimer()
			if got := s.NumCompleted(); got != r {
				b.Fatalf("retained %d, want %d", got, r)
			}
		})
	}
}
