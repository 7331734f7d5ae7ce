package main

import (
	"context"
	"testing"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before any eviction")
	}
	c.put("c", 3) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Error("b survived although it was least recently used")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.get(k); !ok || v != want {
			t.Errorf("%s = %d, %v; want %d", k, v, ok, want)
		}
	}
}

// TestUntracedSplitReplayMatchesTraced checks that answers computed on
// several untraced replayers at once equal the traced replay's.
func TestUntracedSplitReplayMatchesTraced(t *testing.T) {
	w, err := Generate("mixed-open", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Sequence = w.Sequence[:120]
	rp := newReplayer(2, kernelCacheEntries)
	want, err := rp.Run(context.Background(), w, distinctItems(w))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayAnswers(context.Background(), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("split replay answered %d requests, traced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].item != want[i].item || got[i].key != want[i].key {
			t.Errorf("request %d: split replay %q, traced %q", want[i].item, got[i].key, want[i].key)
		}
	}
}
