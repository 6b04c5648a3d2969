package obs

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Lazy is one metric series resolved on first use and then read with
// one atomic load, so a hot path formats the series name once instead
// of on every call. The zero value is ready to use.
type Lazy[M any] struct{ p atomic.Pointer[M] }

// Get returns the series, calling resolve on first use. resolve should
// create the series in a registry (Registry.Counter and friends): the
// series then appears exactly when a by-name call would have created
// it, and goroutines racing on the first use resolve the same series.
func (l *Lazy[M]) Get(resolve func() *M) *M {
	if m := l.p.Load(); m != nil {
		return m
	}
	m := resolve()
	l.p.Store(m)
	return m
}

// Series memoizes the series of one labelled family by key, each
// resolved on first use like a Lazy. A hit is an atomic load and a map
// lookup with no lock. The table is copied on every new key, so it
// suits small key sets such as status codes or decision choices, not
// one key per area.
type Series[K comparable, M any] struct {
	resolve func(K) *M
	mu      sync.Mutex // serializes table copies
	table   atomic.Pointer[map[K]*M]
}

// NewSeries returns an empty table that resolves a missing key through
// resolve, which should create the series in a registry (see Lazy.Get).
func NewSeries[K comparable, M any](resolve func(K) *M) *Series[K, M] {
	return &Series[K, M]{resolve: resolve}
}

// Get returns the series for k, resolving it on first use.
func (s *Series[K, M]) Get(k K) *M {
	if t := s.table.Load(); t != nil {
		if m, ok := (*t)[k]; ok {
			return m
		}
	}
	m := s.resolve(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[K]*M{k: m}
	if t := s.table.Load(); t != nil {
		maps.Copy(next, *t)
	}
	s.table.Store(&next)
	return m
}
