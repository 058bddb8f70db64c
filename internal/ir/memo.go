package ir

import (
	"container/list"
	"sync"
)

// memoCap bounds the module snapshots one Memo remembers. Long-running
// callers (the incremental pipeline, the campaign server) derive new
// modules for as long as they run; an unbounded memo would keep every
// one of them, with its derived facts, alive forever. Every slot beyond
// the working set pins a dead module and its derived values (a compiled
// artifact, analysis facts, a triage), so the cap sits just above the
// largest working set that reuses modules: ten programs and their ten
// edited copies in an incremental edit round.
const memoCap = 24

// Memo memoizes a value derived from a finalized module snapshot: a
// (module pointer, Finalize version) pair, so a re-finalized module is
// recomputed instead of served stale. It remembers the memoCap most
// recently used snapshots, computes each value at most once while
// remembered (concurrent callers wait for the first), and is safe for
// concurrent use. The zero value is ready to use.
type Memo[V any] struct {
	mu  sync.Mutex
	m   map[memoKey]*list.Element // values are *memoEntry[V]
	lru list.List                 // front = most recently used
}

type memoKey struct {
	mod     *Module
	version uint64
}

type memoEntry[V any] struct {
	key  memoKey
	once sync.Once
	v    V
}

// Get returns the value memoized for m's current snapshot, computing it
// with build on first use.
func (c *Memo[V]) Get(m *Module, build func(*Module) V) V {
	key := memoKey{mod: m, version: m.Version()}
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.lru.MoveToFront(el)
	} else {
		if c.m == nil {
			c.m = make(map[memoKey]*list.Element)
		}
		el = c.lru.PushFront(&memoEntry[V]{key: key})
		c.m[key] = el
		if c.lru.Len() > memoCap {
			delete(c.m, c.lru.Remove(c.lru.Back()).(*memoEntry[V]).key)
		}
	}
	e := el.Value.(*memoEntry[V])
	c.mu.Unlock()
	e.once.Do(func() { e.v = build(m) })
	return e.v
}
