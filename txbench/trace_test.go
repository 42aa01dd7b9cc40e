package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, layer: layerTxn, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerClient, txn: 7, start: 10, end: 40},
		{id: 3, parent: 1, layer: layerClient, txn: 7, start: 30, end: 60}, // overlaps span 2
		{id: 4, parent: 2, layer: layerStore, txn: 7, start: 15, end: 20},
		{id: 5, parent: 1, layer: layerClient, txn: 7, start: 90, end: 120}, // runs past its parent
	}
	kids := map[int64][]int{1: {1, 2, 4}, 2: {3}}
	// The root's children cover [10,60) and [90,100): 60 of its 100.
	if got := selfTime(spans[0], spans, kids[1]); got != 40 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := selfTime(spans[1], spans, kids[2]); got != 25 {
		t.Errorf("client self time %d, want 25", got)
	}
	if got := selfTime(spans[3], spans, nil); got != 5 {
		t.Errorf("leaf self time %d, want its duration 5", got)
	}
	sh := selfShares(spans)
	want := [numLayers]float64{layerTxn: 0.40, layerClient: (25 + 30 + 30) / 100.0, layerStore: 0.05}
	for l := range want {
		if math.Abs(sh[l]-want[l]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layerNames[l], sh[l], want[l])
		}
	}
}

func TestLinkByTxn(t *testing.T) {
	ops := []span{
		{id: 1, layer: layerTxn, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerClient, txn: 7, start: 10, end: 40},
		{id: 3, parent: 1, layer: layerClient, txn: 7, start: 50, end: 80},
	}
	store := []span{
		{id: 10, layer: layerStore, txn: 7, start: 55, end: 60},
		{id: 11, layer: layerStore, txn: 8, start: 55, end: 60}, // another transaction
		{id: 12, layer: layerStore, txn: 7, start: 41, end: 45}, // between calls
	}
	linkByTxn(ops, store)
	if store[0].parent != 3 || store[1].parent != 0 || store[2].parent != 0 {
		t.Fatalf("parents %d %d %d, want 3 0 0", store[0].parent, store[1].parent, store[2].parent)
	}
}
