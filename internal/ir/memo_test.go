package ir

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemo(t *testing.T) {
	var memo Memo[int64]
	var builds atomic.Int64
	build := func(*Module) int64 { return builds.Add(1) }
	mods := make([]*Module, memoCap+1)
	for i := range mods {
		mods[i] = NewModule("m")
		mods[i].Finalize()
	}

	// Concurrent first uses of one snapshot build once.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memo.Get(mods[0], build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one snapshot, want 1", n)
	}
	first := memo.Get(mods[0], build)

	// memoCap other snapshots evict the least recently used one, and
	// only that one.
	for _, m := range mods[1:] {
		memo.Get(m, build)
	}
	last := memo.Get(mods[memoCap], build)
	if memo.Get(mods[0], build) == first {
		t.Error("the least recently used snapshot survived past the bound")
	}
	if memo.Get(mods[memoCap], build) != last {
		t.Error("a recently used snapshot was evicted")
	}

	// A re-finalized module is a new snapshot.
	mods[memoCap].Finalize()
	if memo.Get(mods[memoCap], build) == last {
		t.Error("a re-finalized module was served its stale value")
	}
}
