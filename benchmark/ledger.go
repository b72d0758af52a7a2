package main

import (
	"fmt"
	"sort"
	"time"
)

// A ledger is one stepped replay: a single goroutine plays both
// endpoints through each layer's exported functions. The chain steps run
// back to back and make up the stepped wall; a probe calls a child
// layer's entry point directly on same-shaped inputs, outside the chain,
// so that its parent's self time can be told from the child's.
type ledger struct {
	name  string
	per   int // queries (sessions, evaluations) per iteration
	steps []step
	// close, when set, releases what the ledger's steps hold open.
	close func()
}

// step is one timed call into a layer. Chain steps come first and have
// no prep; a probe may prepare untimed state in prep.
type step struct {
	name   string
	parent string // the step whose interval this one is a part of, if any
	probe  bool
	prep   func() error
	run    func() error
}

// span is one recorded interval, in nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ledgerResult holds every iteration's durations by step name and the
// chain's wall per iteration.
type ledgerResult struct {
	ledger  string
	per     int
	iters   int
	durs    map[string][]time.Duration
	walls   []time.Duration
	chained time.Duration // sum of the chain steps' durations
	walled  time.Duration // sum of the chain walls
	// wallOn and wallOff split the chain walls by whether the iteration
	// appended its spans to the trace.
	wallOn, wallOff []time.Duration
}

// recorder keeps the traced run's spans in memory until exit.
type recorder struct {
	origin time.Time
	spans  []span
}

// replay runs the ledger's steps in order, again and again, until budget
// has passed and minIters iterations are done. Every other iteration
// appends its spans to rec; the rest only time themselves, which is what
// trace.overhead_fraction compares.
func (l ledger) replay(rec *recorder, budget time.Duration, minIters int) (*ledgerResult, error) {
	res := &ledgerResult{ledger: l.name, per: l.per, durs: make(map[string][]time.Duration)}
	local := make([]span, 0, len(l.steps))
	begin := time.Now()
	for res.iters < minIters || time.Since(begin) < budget {
		local = local[:0]
		for _, st := range l.steps {
			if st.prep != nil {
				if err := st.prep(); err != nil {
					return nil, fmt.Errorf("%s ledger: prepare %s: %w", l.name, st.name, err)
				}
			}
			t0 := time.Now()
			err := st.run()
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s ledger: %s: %w", l.name, st.name, err)
			}
			local = append(local, span{
				Name: st.name, Parent: st.parent, Probe: st.probe, Op: res.iters,
				Start: t0.Sub(rec.origin).Nanoseconds(), End: t1.Sub(rec.origin).Nanoseconds(),
			})
		}
		recording := res.iters%2 == 0
		if recording {
			rec.spans = append(rec.spans, local...)
		}
		chain, wall := chainTime(local)
		res.chained += chain
		res.walled += wall
		res.walls = append(res.walls, wall)
		if recording {
			res.wallOn = append(res.wallOn, wall)
		} else {
			res.wallOff = append(res.wallOff, wall)
		}
		for _, s := range local {
			res.durs[s.Name] = append(res.durs[s.Name], s.dur())
		}
		res.iters++
	}
	return res, nil
}

// chainTime returns the summed durations of one iteration's chain steps
// and the wall from the first one's start to the last one's end.
func chainTime(spans []span) (chain, wall time.Duration) {
	first, last := int64(-1), int64(0)
	for _, s := range spans {
		if s.Probe {
			continue
		}
		chain += s.dur()
		if first < 0 || s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	if first < 0 {
		return 0, 0
	}
	return chain, time.Duration(last - first)
}

// attributedFraction is the share of the stepped wall that the chain
// steps account for.
func (r *ledgerResult) attributedFraction() float64 {
	if r.walled <= 0 {
		return 0
	}
	return float64(r.chained) / float64(r.walled)
}

// step returns the median duration of the named step per iteration.
func (r *ledgerResult) step(name string) time.Duration {
	return median(r.durs[name])
}

// perUnit returns the named step's median per query, in the given unit.
func (r *ledgerResult) perUnit(name string, unit time.Duration) float64 {
	return float64(r.step(name)) / float64(unit) / float64(r.per)
}

// overheadFraction is how much longer the chain took when the iteration
// also appended its spans to the trace.
func (r *ledgerResult) overheadFraction() float64 {
	off := median(r.wallOff)
	if off <= 0 {
		return 0
	}
	return float64(median(r.wallOn)-off) / float64(off)
}

// selfTimes gives each span's duration minus its children's, where a
// child is a span of the same op that names it as parent. A probe runs
// on inputs of its own, so a noisy child can exceed its parent; the self
// time then stops at zero.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		op   int
		name string
	}
	children := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Op, s.Parent}] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.dur() - children[key{s.Op, s.Name}]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
	}
	return self
}

// median returns the middle of xs, the mean of the two middle values when
// there is an even number, and zero when there are none.
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]T(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
