package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock lets the scheduler run against a fake in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// loadConfig shapes one measured phase. With rate 0 the loop is closed:
// each worker starts its next unit when the previous one is verified.
// With a rate the loop is open: arrival k is due at start + k/rate
// whatever the system does, the workers take arrivals in order, and an
// arrival waits in the generator while every worker is busy.
//
// An arrival that was already due when a worker took it waited because
// the system was busy, and its latency runs from its intended start. An
// arrival a worker had to sleep for found the system idle; it starts when
// the worker's timer fires, and how late that was is the generator's
// lateness, reported but not charged to the system. (An idle Go runtime
// wakes a sleeper from epoll_wait, whose timeout counts whole
// milliseconds, and the reference host adds a 4 ms mode on some runs;
// nanosleep(2) is exact but keeps its P from the servers.)
type loadConfig struct {
	workers  int
	rate     float64 // arrivals per second over all workers; 0 = closed loop
	duration time.Duration
}

// unitFunc runs one latency unit on a worker and verifies its results.
// It reports how many ops the unit holds, whether or not it failed.
type unitFunc func(worker int) (ops int, err error)

// loadResult is what one measured phase observed. Every slice holds one
// entry per successful unit.
type loadResult struct {
	wall      time.Duration
	attempted int // ops
	failed    int // ops in units that failed or disagreed with the oracle
	units     int
	latency   []time.Duration // closed: call start to verified; open: see loadConfig
	service   []time.Duration // call start to verified
	lateness  []time.Duration // call start minus intended start
	backlog   int             // most arrivals that were due and not yet started
	firstErr  error
}

// runLoad drives unit from cfg.workers goroutines until cfg.duration has
// passed; units started before the deadline run to completion.
func runLoad(clk clock, cfg loadConfig, unit unitFunc) loadResult {
	start := clk.Now()
	deadline := start.Add(cfg.duration)
	var next atomic.Int64
	parts := make([]loadResult, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := &parts[w]
			prevEnd := start
			for {
				intended := prevEnd
				var claimed int64
				if cfg.rate > 0 {
					claimed = next.Add(1)
					intended = start.Add(time.Duration(float64(claimed-1) / cfg.rate * float64(time.Second)))
				}
				if !intended.Before(deadline) {
					return
				}
				idle := false // the worker had to wait for the arrival
				if d := intended.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
					idle = true
				}
				begin := clk.Now()
				if cfg.rate > 0 {
					due := int64(begin.Sub(start).Seconds()*cfg.rate) + 1
					if b := int(due - claimed); b > part.backlog {
						part.backlog = b
					}
				}
				ops, err := unit(w)
				end := clk.Now()
				prevEnd = end
				part.units++
				part.attempted += ops
				if err != nil {
					part.failed += ops
					if part.firstErr == nil {
						part.firstErr = err
					}
					continue
				}
				part.service = append(part.service, end.Sub(begin))
				part.lateness = append(part.lateness, begin.Sub(intended))
				if idle || cfg.rate == 0 {
					part.latency = append(part.latency, end.Sub(begin))
				} else {
					part.latency = append(part.latency, end.Sub(intended))
				}
			}
		}(w)
	}
	wg.Wait()
	total := loadResult{wall: clk.Now().Sub(start)}
	for _, p := range parts {
		total.attempted += p.attempted
		total.failed += p.failed
		total.units += p.units
		total.latency = append(total.latency, p.latency...)
		total.service = append(total.service, p.service...)
		total.lateness = append(total.lateness, p.lateness...)
		if p.backlog > total.backlog {
			total.backlog = p.backlog
		}
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// percentile returns the nearest-rank p-th percentile of ds (0 < p <= 100).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The slack keeps 99.9 % of 10000 at 9990, not at the 9991 that the
	// product's last binary digit would round up to.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates for the highest percentile a run
// can report, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90}

// highestPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; ok is false when even the lowest
// candidate has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
