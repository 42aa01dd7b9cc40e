package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// layer names a span's layer. Spans are recorded by the benchmark around
// its calls into each layer's public functions; nothing inside the
// program is instrumented.
type layer uint8

const (
	layerTxn    layer = iota // one logical transaction, retries included (the root)
	layerClient              // a txdel/client call: Begin, Read, Write
	layerServe               // one request/response round trip to txgc-serve
	layerStore               // a store.ShardStore call made by a shard
	numLayers
)

var layerNames = [numLayers]string{"txn", "client", "serve", "store"}

type span struct {
	id, parent int64
	layer      layer
	op         string
	txn        int64 // engine transaction ID (0 for roots and unlinked calls)
	start, end int64 // nanoseconds since the trace epoch
}

// traceClock is the epoch every span of a run is stamped against, and the
// source of span IDs.
type traceClock struct {
	epoch time.Time
	ids   atomic.Int64
}

func newTraceClock() *traceClock { return &traceClock{epoch: time.Now()} }

func (c *traceClock) now() int64 { return int64(time.Since(c.epoch)) }

// maxSpansPerTracer bounds the spans one worker keeps in memory; spans
// beyond it are counted, not kept.
const maxSpansPerTracer = 1 << 18

// tracer is one worker's recorder: per-operation latency histograms for
// every transaction, and spans for every sampleEvery-th transaction. A nil
// *tracer records nothing, which is the untraced run.
type tracer struct {
	clk         *traceClock
	sampleEvery int64
	seen        int64
	root        int64 // current sampled root span, 0 when not sampled
	rootStart   int64
	spans       []span
	dropped     int64

	begin, read, write     hist // client op latency
	writeLocal, writeCross hist
	rtt                    hist // serve request round trip
}

func newTracers(clk *traceClock, n int, sampleEvery int64) []*tracer {
	trs := make([]*tracer, n)
	for i := range trs {
		trs[i] = &tracer{clk: clk, sampleEvery: sampleEvery}
	}
	return trs
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.clk.now()
}

func (t *tracer) keep(s span) {
	if len(t.spans) >= maxSpansPerTracer {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) startTxn() int64 {
	if t == nil {
		return 0
	}
	t.seen++
	if t.seen%t.sampleEvery != 0 {
		t.root = 0
		return 0
	}
	t.root = t.clk.ids.Add(1)
	t.rootStart = t.clk.now()
	return t.root
}

func (t *tracer) endTxn(root int64) {
	if t == nil || root == 0 {
		return
	}
	t.keep(span{id: root, layer: layerTxn, op: "txn", start: t.rootStart, end: t.clk.now()})
}

// op records one call that started at start and returns its end time,
// the start of the next back-to-back call.
func (t *tracer) op(l layer, name string, txn, start int64, h *hist) int64 {
	end := t.clk.now()
	h.record(end - start)
	if t.root != 0 {
		t.keep(span{id: t.clk.ids.Add(1), parent: t.root, layer: l, op: name, txn: txn, start: start, end: end})
	}
	return end
}

// linkByTxn parents each store span to the client-op span of the same
// transaction whose interval contains it. Store calls run on shard
// goroutines, so their parent is found after the run, not while it runs.
// Spans left without a parent (checkpoints, calls for unsampled
// transactions) stay out of the self-time shares.
func linkByTxn(ops, store []span) {
	byTxn := map[int64][]int{}
	for i, s := range ops {
		if s.layer == layerClient {
			byTxn[s.txn] = append(byTxn[s.txn], i)
		}
	}
	for i := range store {
		s := &store[i]
		for _, j := range byTxn[s.txn] {
			if o := ops[j]; o.start <= s.start && s.end <= o.end {
				s.parent = o.id
				break
			}
		}
	}
}

// selfShares returns, per layer, the summed self time of its spans in the
// trees rooted at transaction spans, as a share of the summed root
// durations. A span's self time is its duration minus the part of it its
// children cover.
func selfShares(spans []span) [numLayers]float64 {
	children := map[int64][]int{}
	byID := map[int64]int{}
	for i, s := range spans {
		byID[s.id] = i
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	var self [numLayers]float64
	var rootTotal float64
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		self[s.layer] += float64(selfTime(s, spans, children[s.id]))
		for _, c := range children[s.id] {
			walk(c)
		}
	}
	for i, s := range spans {
		if s.layer == layerTxn && s.parent == 0 {
			rootTotal += float64(s.end - s.start)
			walk(i)
		}
	}
	var out [numLayers]float64
	if rootTotal > 0 {
		for l := range out {
			out[l] = self[l] / rootTotal
		}
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// each clipped to s.
func selfTime(s span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	reach = s.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return (s.end - s.start) - covered
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"layer":%q,"op":%q,"txn":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, layerNames[s.layer], s.op, s.txn, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
