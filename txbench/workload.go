package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/txdel/client"
)

// Load shape shared by every workload: two client sessions (or two TCP
// connections), each transaction BEGINs with a declared footprint of four
// entities, reads three of them and commits with a final write of the
// fourth. Every BEGIN carries a deadline, as real callers set one.
const (
	sessions      = 2
	footprintSize = 4
	txnDeadline   = time.Second
	// maxAttempts bounds the retries of one logical transaction; a
	// transaction still aborting after that many attempts counts as failed.
	maxAttempts = 64
	// inputTable is how many transaction footprints the seed generates;
	// the load cycles through them (IDs stay fresh on every pass).
	inputTable = 1 << 16

	// preloadBase is the first ID of the load phase's transactions, far
	// above any ID a session allocates.
	preloadBase = 1 << 50
	// preloadBatch is how many load-phase transactions share one batch.
	preloadBatch = 256

	// Straggler shape (straggler-retention): a read-only session reading
	// stragglerReads entities from the first stragglerSpan entities of one
	// partition, spread over stragglerLife, then committing.
	stragglerReads = 50
	stragglerSpan  = 256
	stragglerLife  = 2 * time.Second
	// stragglerTable is how many straggler footprints each straggler
	// session cycles through.
	stragglerTable = 64
)

// workload is one traffic mix. The rate and limit were fixed once, from
// seed-1 runs on the reference host (see README.md).
type workload struct {
	name       string
	entities   int
	shards     int
	policy     string
	crossFrac  float64 // share of transactions spanning two partitions
	stragglers int     // rolling read-only straggler sessions
	serve      bool    // drive txgc-serve over loopback TCP instead of in process
	rate       float64 // latency-phase arrival rate, txn/s
	limit      time.Duration
}

// serve-durable runs over 16,384 entities, a quarter of local-session's:
// a checkpoint is taken at every sweep and its image carries the current
// writer of every entity, so at 65,536 entities the run was bound by
// encoding and copying images (~1.4k txn/s) and its throughput moved
// between runs by more than the benchmark's 25% bound.
var workloads = []workload{
	{name: "local-session", entities: 65536, shards: 4, policy: "greedy-c1",
		rate: 30000, limit: 5 * time.Millisecond},
	{name: "straggler-retention", entities: 16384, shards: 4, policy: "greedy-c1",
		stragglers: 2, rate: 4000, limit: 100 * time.Millisecond},
	{name: "serve-durable", entities: 16384, shards: 4, policy: "greedy-c1",
		crossFrac: 0.2, serve: true, rate: 500, limit: 100 * time.Millisecond},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// txnInput is one transaction's generated input: it reads fp[0..2] and
// writes fp[3].
type txnInput struct {
	fp    [footprintSize]client.Entity
	cross bool
}

func (in *txnInput) reads() []client.Entity { return in.fp[:footprintSize-1] }
func (in *txnInput) write() client.Entity   { return in.fp[footprintSize-1] }

type inputs struct {
	txns []txnInput
	// stragglers[s] is straggler session s's cycle of footprints.
	stragglers [][][]client.Entity
}

// genInputs derives every input of a run from the seed alone.
func genInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x7478))
	perPart := w.entities / w.shards
	pick := func(p int, used []client.Entity) client.Entity {
		for {
			x := client.Entity(p + w.shards*rng.IntN(perPart))
			dup := false
			for _, u := range used {
				dup = dup || u == x
			}
			if !dup {
				return x
			}
		}
	}
	in := &inputs{txns: make([]txnInput, inputTable)}
	for i := range in.txns {
		t := &in.txns[i]
		p := rng.IntN(w.shards)
		q := p
		t.cross = rng.Float64() < w.crossFrac
		if t.cross {
			q = (p + 1 + rng.IntN(w.shards-1)) % w.shards
		}
		for j := range t.fp {
			part := p
			if j%2 == 1 {
				part = q
			}
			t.fp[j] = pick(part, t.fp[:j])
		}
	}
	for s := 0; s < w.stragglers; s++ {
		srng := rand.New(rand.NewPCG(uint64(seed), 0x5354+uint64(s)))
		cycle := make([][]client.Entity, stragglerTable)
		for g := range cycle {
			p := (s + g) % w.shards
			ks := srng.Perm(stragglerSpan)[:stragglerReads]
			fp := make([]client.Entity, stragglerReads)
			for i, k := range ks {
				fp[i] = client.Entity(p + w.shards*k)
			}
			cycle[g] = fp
		}
		in.stragglers = append(in.stragglers, cycle)
	}
	return in
}
