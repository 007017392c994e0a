// Package obs is the simulator's observability layer: named atomic
// counters, fixed-bucket histograms, and a registry that exports both as a
// deterministic JSON snapshot. It is the reporting spine the experiment
// engine, the fault-injection campaigns, and the timing models all feed,
// and the layer ssbench surfaces through -metrics-out.
//
// Two properties drive the design:
//
//   - Race safety. Counters and histogram buckets are atomics, and the
//     registry's get-or-create paths are guarded, so concurrent users (the
//     AOT build cache's racing builds, say) may share one registry.
//     Addition is commutative, so an aggregate of deterministic deltas is
//     deterministic whatever order they arrive in.
//
//   - Zero cost when disabled. Every method is nil-safe: a nil *Registry
//     hands out nil *Counter and *Histogram values whose methods are
//     no-ops. Instrumented code holds one pointer and pays one nil check
//     when observability is off; there is no global flag to consult.
//
// Snapshots are plain sorted-key JSON (encoding/json sorts map keys), so a
// snapshot of a quiescent registry is byte-identical across runs whenever
// the underlying counts are.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonic counter. The zero value is ready to use;
// a nil Counter ignores all updates.
type Counter struct {
	v atomic.Uint64
}

// Add adds n to the counter. No-op on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds 1 to the counter. No-op on a nil Counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil Counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= UpperBounds[i]; the final implicit bucket counts the
// overflow. Bounds are fixed at registration, so merging and snapshotting
// never rebin. A nil Histogram ignores all observations.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sum     atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// It panics on empty or unsorted bounds — histogram shapes are static
// configuration, and a malformed one is a programming error.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. No-op on a nil Histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Registry is a named collection of counters and histograms. The zero
// value is not usable; construct with NewRegistry. A nil Registry hands
// out nil instruments, making disabled instrumentation free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent callers; nil receiver returns a nil (no-op) Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. The first registration fixes the bounds; later
// calls return the existing histogram regardless of the bounds argument.
// Nil receiver returns a nil (no-op) Histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// UpperBounds are the ascending bucket bounds; Counts has one extra
	// final entry for observations above the last bound.
	UpperBounds []uint64 `json:"upper_bounds"`
	Counts      []uint64 `json:"counts"`
}

// Snapshot is the exported state of a registry. Marshalling it produces
// sorted keys, so equal counts yield byte-identical JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every instrument. Each counter is read atomically, but
// the set is not a consistent cut across instruments: snapshot after the
// instrumented work has quiesced (the engine does) for exact totals.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:       h.count.Load(),
			Sum:         h.sum.Load(),
			UpperBounds: append([]uint64(nil), h.bounds...),
			Counts:      make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		s.Histograms[name] = hs
	}
	return s
}

// MarshalIndent renders the snapshot as indented JSON with sorted keys.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
