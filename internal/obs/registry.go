package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// histBounds are the shared fixed bucket upper bounds (inclusive) of
// every histogram: powers of four from 1µs up to ~4.6 minutes when read
// as nanoseconds. A fixed geometry keeps Observe allocation-free and
// makes snapshots comparable across processes and runs.
var histBounds = func() []int64 {
	b := make([]int64, 15)
	v := int64(1 << 10) // 1024 ns
	for i := range b {
		b[i] = v
		v <<= 2
	}
	return b
}()

// histogram is a fixed-bucket concurrent histogram.
type histogram struct {
	counts [16]atomic.Int64 // len(histBounds) buckets + overflow
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid when count > 0
	max    atomic.Int64
}

func (h *histogram) observe(v int64) {
	i := sort.Search(len(histBounds), func(i int) bool { return v <= histBounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Registry is the concrete Recorder: a concurrent map of named atomic
// counters, gauges, and histograms. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	counters   sync.Map // string -> *atomic.Int64
	gauges     sync.Map // string -> *atomic.Int64
	histograms sync.Map // string -> *histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func loadOrStoreInt64(m *sync.Map, name string) *atomic.Int64 {
	if v, ok := m.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := m.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Add implements Recorder.
func (g *Registry) Add(name string, delta int64) {
	loadOrStoreInt64(&g.counters, name).Add(delta)
}

// Set implements Recorder.
func (g *Registry) Set(name string, value int64) {
	loadOrStoreInt64(&g.gauges, name).Store(value)
}

// Observe implements Recorder.
func (g *Registry) Observe(name string, value int64) {
	var h *histogram
	if v, ok := g.histograms.Load(name); ok {
		h = v.(*histogram)
	} else {
		fresh := &histogram{}
		fresh.min.Store(math.MaxInt64)
		fresh.max.Store(math.MinInt64)
		v, _ := g.histograms.LoadOrStore(name, fresh)
		h = v.(*histogram)
	}
	h.observe(value)
}

// Counter returns a counter's current value (0 if never written).
func (g *Registry) Counter(name string) int64 {
	if v, ok := g.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// HistSnapshot is one histogram's state at snapshot time.
type HistSnapshot struct {
	// Count and Sum aggregate all observations; Sum/Count is the mean.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets holds per-bucket observation counts, parallel to histBounds
	// with one trailing overflow bucket (+Inf).
	Buckets []int64 `json:"buckets"`
}

// Snapshot is a consistent-enough point-in-time copy of a registry:
// individual values are read atomically (the set of values is not
// globally fenced, which is fine for monitoring and benchmark reports).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (g *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	g.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	g.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	g.histograms.Range(func(k, v any) bool {
		h := v.(*histogram)
		hs := HistSnapshot{
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Buckets[i] = h.counts[i].Load()
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		s.Histograms[k.(string)] = hs
		return true
	})
	return s
}

// metricName flattens a dotted metric name into the conventional
// exposition charset (dots to underscores).
func metricName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// WriteText renders the snapshot in a Prometheus-style plain-text form:
// one "name value" line per counter/gauge, and _count/_sum/_min/_max plus
// cumulative le-labeled bucket lines per histogram. Output is sorted for
// deterministic scrapes and tests.
func (s Snapshot) WriteText(w io.Writer) error {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", metricName(n), s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", metricName(n), s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		base := metricName(n)
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %d\n%s_min %d\n%s_max %d\n",
			base, h.Count, base, h.Sum, base, h.Min, base, h.Max); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range h.Buckets {
			cum += c
			le := "+Inf"
			if i < len(histBounds) {
				le = fmt.Sprintf("%d", histBounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", base, le, cum); err != nil {
				return err
			}
		}
	}
	return nil
}
