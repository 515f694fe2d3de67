package cas

import (
	"errors"
	"sync"
)

// Memo is the memory tier above Store: a keyed single-flight cache of
// decoded values. Do runs fill once per key; every concurrent caller of that
// key waits for the fill in flight, and every later caller shares its value.
// The zero value is ready to use, and a Memo is safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
}

// Do returns key's value, running fill to produce it if no caller has yet;
// filled reports whether this call ran fill. A fill that panics propagates
// to its caller and leaves the zero value: later calls of that key return
// it, with filled false, and never run fill again.
func (m *Memo[K, V]) Do(key K, fill func() V) (v V, filled bool) {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[K]*memoCell[V])
	}
	c := m.cells[key]
	if c == nil {
		c = &memoCell[V]{}
		m.cells[key] = c
	}
	m.mu.Unlock()
	c.once.Do(func() {
		filled = true
		c.v = fill()
	})
	return c.v, filled
}

// ErrNotFound is Load's miss: the store holds no servable entry for the key.
var ErrNotFound = errors.New("cas: entry not found")

// Load gets the entry under (namespace, key) and decodes it. A miss returns
// ErrNotFound. An entry that decode rejects — its frame intact, its domain
// encoding not (e.g. an older codec version) — is quarantined, which the
// store logs, and decode's error is returned, so the caller falls back
// exactly as on a miss and its rebuild overwrites a clean slot. Safe on a
// nil store (always ErrNotFound).
func Load[T any](s *Store, namespace, key string, decode func([]byte) (T, error)) (T, error) {
	var zero T
	data, ok := s.Get(namespace, key)
	if !ok {
		return zero, ErrNotFound
	}
	v, err := decode(data)
	if err != nil {
		s.Quarantine(namespace, key, err)
		return zero, err
	}
	return v, nil
}
