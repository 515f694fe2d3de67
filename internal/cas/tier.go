package cas

import (
	"container/list"
	"sync"
)

// Memo is the memory tier: a keyed single-flight cache of computed values.
// Do runs fill once per key; every concurrent caller of that key waits for
// the fill in flight, and every later caller shares its value. The zero
// value is ready to use and keeps every value for good; Bound gives it a
// byte budget. A Memo is safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[K, V]

	size      func(V) int64 // weighs a filled value; nil = unbounded
	max       int64         // budget for the weighed total
	resident  int64         // total weight of the filled values held
	evictions uint64
	lru       list.List // filled cells, most recently used at the front
}

type memoCell[K comparable, V any] struct {
	once sync.Once
	v    V
	key  K
	size int64
	elem *list.Element // in lru once filled and weighed; nil before
}

// Bound weighs every filled value with size and keeps their total within
// max: past it, the least recently used filled values are evicted, and the
// next Do of an evicted key fills again. A fill in flight is never evicted,
// nor is the value just filled: the total passes max only while that one
// value alone does. Call Bound before the first Do.
func (m *Memo[K, V]) Bound(max int64, size func(V) int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.max, m.size = max, size
}

// Do returns key's value, running fill to produce it if no caller has yet;
// filled reports whether this call ran fill. A fill that panics propagates
// to its caller and leaves the zero value: later calls of that key return
// it, with filled false, and never run fill again (a bounded Memo never
// evicts it either).
func (m *Memo[K, V]) Do(key K, fill func() V) (v V, filled bool) {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[K]*memoCell[K, V])
	}
	c := m.cells[key]
	if c == nil {
		c = &memoCell[K, V]{key: key}
		m.cells[key] = c
	} else if c.elem != nil {
		m.lru.MoveToFront(c.elem)
	}
	m.mu.Unlock()
	c.once.Do(func() {
		filled = true
		c.v = fill()
	})
	if filled {
		m.admit(c)
	}
	return c.v, filled
}

// admit weighs a cell its caller just filled, makes it the most recently
// used, and evicts from the least recently used end until the total fits
// the budget or only the new cell is left. The weighing runs outside the
// lock: it is the caller's code.
func (m *Memo[K, V]) admit(c *memoCell[K, V]) {
	m.mu.Lock()
	size := m.size
	m.mu.Unlock()
	if size == nil {
		return
	}
	w := size(c.v)
	m.mu.Lock()
	defer m.mu.Unlock()
	c.size = w
	c.elem = m.lru.PushFront(c)
	m.resident += c.size
	for m.resident > m.max && m.lru.Back() != c.elem {
		victim := m.lru.Remove(m.lru.Back()).(*memoCell[K, V])
		delete(m.cells, victim.key)
		m.resident -= victim.size
		m.evictions++
	}
}

// Resident reports the total weight of the filled values held and how many
// values the budget has evicted; both stay zero without Bound.
func (m *Memo[K, V]) Resident() (bytes int64, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident, m.evictions
}
