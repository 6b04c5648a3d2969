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

// attachKey files one attached value: the attaching package, then its
// own key.
type attachKey struct{ owner, key string }

// Attached returns the value attached to r under (owner, key), building
// it with mk on first use. A package that publishes one labelled family
// from many calls (a worker pool on every batch request, say) attaches
// the handles it resolves to their registry, so they are resolved once
// per registry and live exactly as long as it; a package-level table
// keyed by registry would keep every registry alive. owner names the
// attaching package, so packages cannot collide. mk runs at most once
// per key, under a lock it must not re-enter through Attached.
func (r *Registry) Attached(owner, key string, mk func() any) any {
	k := attachKey{owner, key}
	r.attachMu.RLock()
	v, ok := r.attached[k]
	r.attachMu.RUnlock()
	if ok {
		return v
	}
	r.attachMu.Lock()
	defer r.attachMu.Unlock()
	if v, ok = r.attached[k]; !ok {
		v = mk()
		r.attached[k] = v
	}
	return v
}
