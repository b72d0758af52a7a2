package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[99-i] = time.Duration(i+1) * time.Millisecond // unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}, {0.1, time.Millisecond}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // p90 would have only 9 samples beyond it
		{100, 90, true},
		{199, 90, true}, // p95 would have 9 beyond
		{200, 95, true},
		{500, 98, true},
		{1000, 99, true},
		{2000, 99.5, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < 10 {
			t.Errorf("highestPercentile(%d) = %v leaves %d samples beyond", c.n, got, c.n-rank(c.n, got))
		}
	}
}

// fakeClock advances only when the scheduler sleeps or a unit runs.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromIntendedStart(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	// 100 arrivals/s for 100 ms: ten arrivals, 10 ms apart. The first unit
	// stalls for 35 ms, the rest take 1 ms.
	service := []time.Duration{35 * time.Millisecond}
	calls := 0
	res := runLoad(clk, loadConfig{workers: 1, rate: 100, duration: 100 * time.Millisecond}, func(int) (int, error) {
		d := time.Millisecond
		if calls < len(service) {
			d = service[calls]
		}
		calls++
		clk.Sleep(d)
		return 1, nil
	})
	if res.attempted != 10 || res.failed != 0 || res.units != 10 {
		t.Fatalf("attempted %d failed %d units %d, want 10 0 10", res.attempted, res.failed, res.units)
	}
	msec := func(ds []time.Duration) []int {
		out := make([]int, len(ds))
		for i, d := range ds {
			out[i] = int(d / time.Millisecond)
		}
		return out
	}
	// Arrivals 1-3 were due at 10, 20 and 30 ms but started at 35, 36 and
	// 37 ms: their latency counts the wait the stall imposed on them.
	wantLateness := []int{0, 25, 16, 7, 0, 0, 0, 0, 0, 0}
	wantLatency := []int{35, 26, 17, 8, 1, 1, 1, 1, 1, 1}
	wantService := []int{35, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for name, pair := range map[string][2][]int{
		"lateness": {msec(res.lateness), wantLateness},
		"latency":  {msec(res.latency), wantLatency},
		"service":  {msec(res.service), wantService},
	} {
		if !equalInts(pair[0], pair[1]) {
			t.Errorf("%s = %v ms, want %v ms", name, pair[0], pair[1])
		}
	}
	// When arrival 1 started at 35 ms, arrivals 2 and 3 were due too.
	if res.backlog != 2 {
		t.Errorf("backlog = %d, want 2", res.backlog)
	}
	if res.wall != 91*time.Millisecond {
		t.Errorf("wall = %v, want 91ms (the last arrival, due at 90 ms, takes 1 ms)", res.wall)
	}
}

// lateClock oversleeps, as a real timer does.
type lateClock struct {
	fakeClock
	late time.Duration
}

func (c *lateClock) Sleep(d time.Duration) { c.fakeClock.Sleep(d + c.late) }

func TestOpenLoopDoesNotChargeTimerLatenessToTheSystem(t *testing.T) {
	clk := &lateClock{fakeClock: fakeClock{now: time.Unix(1000, 0)}, late: 700 * time.Microsecond}
	res := runLoad(clk, loadConfig{workers: 1, rate: 100, duration: 50 * time.Millisecond}, func(int) (int, error) {
		clk.fakeClock.Sleep(2 * time.Millisecond)
		return 1, nil
	})
	// The worker is idle before every arrival but the first, so each one
	// starts 0.7 ms late by the timer's doing: reported, not charged.
	if res.units != 5 {
		t.Fatalf("units = %d, want 5", res.units)
	}
	for i := range res.latency {
		wantLate := 700 * time.Microsecond
		if i == 0 {
			wantLate = 0
		}
		if res.latency[i] != 2*time.Millisecond || res.lateness[i] != wantLate {
			t.Errorf("arrival %d: latency %v lateness %v, want 2ms %v", i, res.latency[i], res.lateness[i], wantLate)
		}
	}
}

func TestClosedLoopStartsNextUnitWhenPreviousEnds(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	res := runLoad(clk, loadConfig{workers: 1, duration: 10 * time.Millisecond}, func(int) (int, error) {
		clk.Sleep(3 * time.Millisecond)
		return 4, nil
	})
	// Units start at 0, 3, 6 and 9 ms; the one started before the deadline
	// runs to completion.
	if res.units != 4 || res.attempted != 16 || res.wall != 12*time.Millisecond {
		t.Fatalf("units %d attempted %d wall %v, want 4 16 12ms", res.units, res.attempted, res.wall)
	}
	for i, d := range res.latency {
		if d != 3*time.Millisecond || res.lateness[i] != 0 {
			t.Errorf("unit %d: latency %v lateness %v, want 3ms 0", i, d, res.lateness[i])
		}
	}
	if res.backlog != 0 {
		t.Errorf("closed loop reported a backlog of %d", res.backlog)
	}
}

func TestFailedUnitsCountEveryOp(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	n := 0
	res := runLoad(clk, loadConfig{workers: 1, duration: 4 * time.Millisecond}, func(int) (int, error) {
		clk.Sleep(time.Millisecond)
		n++
		if n == 2 {
			return 8, errMismatch
		}
		return 8, nil
	})
	if res.attempted != 32 || res.failed != 8 || len(res.latency) != 3 || res.firstErr != errMismatch {
		t.Errorf("attempted %d failed %d latencies %d err %v", res.attempted, res.failed, len(res.latency), res.firstErr)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Name: "classify.client_newbatch", Op: 0, Start: us(0), End: us(100)},
		{Name: "ompe.receiver_newbatch", Parent: "classify.client_newbatch", Probe: true, Op: 0, Start: us(500), End: us(570)},
		{Name: "fixedpoint.encode", Parent: "classify.client_newbatch", Probe: true, Op: 0, Start: us(600), End: us(610)},
		{Name: "ot.ext_query", Parent: "ompe.receiver_newbatch", Probe: true, Op: 0, Start: us(700), End: us(730)},
		// A noisy probe longer than its parent leaves no negative self time.
		{Name: "classify.client_finish", Op: 0, Start: us(100), End: us(120)},
		{Name: "poly.interpolate", Parent: "classify.client_finish", Probe: true, Op: 0, Start: us(800), End: us(830)},
		// Children of another op do not count against this one.
		{Name: "classify.client_newbatch", Op: 1, Start: us(1000), End: us(1100)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"classify.client_newbatch": (100 - 70 - 10 + 100) * time.Microsecond,
		"ompe.receiver_newbatch":   (70 - 30) * time.Microsecond,
		"fixedpoint.encode":        10 * time.Microsecond,
		"ot.ext_query":             30 * time.Microsecond,
		"classify.client_finish":   0,
		"poly.interpolate":         30 * time.Microsecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestAttributedFractionCountsChainStepsOnly(t *testing.T) {
	spans := []span{
		{Name: "a", Start: 0, End: 400},
		{Name: "b", Start: 500, End: 900}, // 100 ns between the steps is unattributed
		{Name: "child", Parent: "a", Probe: true, Start: 2000, End: 9000},
	}
	chain, wall := chainTime(spans)
	if chain != 800 || wall != 900 {
		t.Fatalf("chain %v wall %v, want 800ns 900ns", chain, wall)
	}
	r := &ledgerResult{chained: chain, walled: wall}
	if got := r.attributedFraction(); math.Abs(got-800.0/900.0) > 1e-12 {
		t.Errorf("attributed fraction = %v", got)
	}
	if got := (&ledgerResult{}).attributedFraction(); got != 0 {
		t.Errorf("empty ledger attributes %v", got)
	}
}

func TestReplayRecordsEveryOtherIteration(t *testing.T) {
	prepared, ran := 0, 0
	l := ledger{name: "test", per: 2, steps: []step{
		{name: "top", run: func() error { time.Sleep(200 * time.Microsecond); ran++; return nil }},
		{name: "probe", parent: "top", probe: true, prep: func() error { prepared++; return nil }, run: func() error { return nil }},
	}}
	rec := &recorder{origin: time.Now()}
	res, err := l.replay(rec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.iters != 4 || ran != 4 || prepared != 4 {
		t.Fatalf("iters %d ran %d prepared %d, want 4 each", res.iters, ran, prepared)
	}
	if len(rec.spans) != 4 { // two steps in each of iterations 0 and 2
		t.Errorf("recorded %d spans, want 4", len(rec.spans))
	}
	if len(res.wallOn) != 2 || len(res.wallOff) != 2 || len(res.durs["top"]) != 4 {
		t.Errorf("walls on/off %d/%d, top samples %d", len(res.wallOn), len(res.wallOff), len(res.durs["top"]))
	}
	if f := res.attributedFraction(); f < 0.99 || f > 1 {
		t.Errorf("a one-step chain attributes %v of its wall", f)
	}
	if got := res.perUnit("top", time.Microsecond); got < 100 {
		t.Errorf("per-query time %v us, want at least 100 (200 us over 2 queries)", got)
	}
	boom := ledger{name: "test", per: 1, steps: []step{{name: "fails", run: func() error { return io.ErrUnexpectedEOF }}}}
	if _, err := boom.replay(rec, 0, 1); err == nil || !strings.Contains(err.Error(), "fails") {
		t.Errorf("failing step: err = %v, want one naming the step", err)
	}
}

func TestCountingConnCountsBothDirections(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var total atomic.Int64
	c := countingConn{Conn: a, total: &total}
	go func() {
		buf := make([]byte, 5)
		_, _ = io.ReadFull(b, buf)
		_, _ = b.Write([]byte("abc"))
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8 {
		t.Errorf("counted %d bytes, want 8", total.Load())
	}
}

func TestCountingReader(t *testing.T) {
	r := &countingReader{r: bytes.NewReader(make([]byte, 100))}
	buf := make([]byte, 30)
	for i := 0; i < 3; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
	}
	if r.n != 90 {
		t.Errorf("counted %d bytes, want 90", r.n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(values)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	sp := summarise(values, "ms")
	if sp.Median != 5.5 || math.Abs(sp.IQR-1) > 1e-12 {
		t.Errorf("median %v iqr %v, want 5.5 and 1", sp.Median, sp.IQR)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("two values: %v, %v", q1, q3)
	}
}

func TestJudgeAppliesBoundInTheWorseDirection(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m      specMetric
		a, b   spread
		want   string
		change float64
	}{
		{lower, spread{Median: 100, IQR: 0.02}, spread{Median: 108, IQR: 0.02}, verdictOK, 0.08},
		{lower, spread{Median: 100, IQR: 0.02}, spread{Median: 115, IQR: 0.02}, verdictWorse, 0.15},
		{lower, spread{Median: 100, IQR: 0.02}, spread{Median: 50, IQR: 0.02}, verdictOK, -0.5},
		{higher, spread{Median: 100, IQR: 0.02}, spread{Median: 85, IQR: 0.02}, verdictWorse, 0.15},
		{higher, spread{Median: 100, IQR: 0.02}, spread{Median: 130, IQR: 0.02}, verdictOK, -0.3},
		{lower, spread{Median: 100, IQR: 0.12}, spread{Median: 130, IQR: 0.02}, verdictUnresolved, 0.3},
		{lower, spread{Median: 100, IQR: 0.02}, spread{Median: 101, IQR: 0.2}, verdictUnresolved, 0.01},
	} {
		change, got := judge(c.m, c.a, c.b)
		if got != c.want || math.Abs(change-c.change) > 1e-12 {
			t.Errorf("judge(%s, %v -> %v) = %+.3f %s, want %+.3f %s", c.m.Name, c.a.Median, c.b.Median, change, got, c.change, c.want)
		}
	}
}

func TestReplicaSkew(t *testing.T) {
	if got := replicaSkew([]int64{10, 10}, []int64{60, 60}); got != 1 {
		t.Errorf("balanced skew = %v, want 1", got)
	}
	if got := replicaSkew([]int64{0, 0}, []int64{100, 0}); got != 2 {
		t.Errorf("one-sided skew = %v, want 2", got)
	}
	if got := replicaSkew(nil, nil); got != 0 {
		t.Errorf("no gateway skew = %v, want 0", got)
	}
}

// TestSmoke runs every workload for a second, end to end and traced, and
// holds the results against BENCHMARK.json: the same metric names and
// units, every op correct, and a stream ledger that closes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	var spec benchSpec
	if err := readJSON("../"+specPath, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	ph := phases{setups: 1, warmUp: 200 * time.Millisecond, measure: time.Second}
	outDir := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runEndToEnd(w, 1, ph)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, e2e.Result, spec.EndToEnd)
			traced, err := runTraced(w, 1, ph, outDir)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced.Result, spec.PerLayer)
			mt := traced.Result.Metrics
			if f := mt["ledger.attributed_fraction"].Value; f < 0.90 {
				t.Errorf("ledger.attributed_fraction = %v, want at least 0.90", f)
			}
			if n := mt["runtime.goroutines_leaked"].Value; n != 0 {
				t.Errorf("%v goroutines outlived the stack", n)
			}
			if w.kind == kindSessionResumed {
				if r := mt["transport.resumed_ratio"].Value; r != 1 {
					t.Errorf("transport.resumed_ratio = %v, want 1", r)
				}
				if r := mt["gateway.affinity_hit_ratio"].Value; r != 1 {
					t.Errorf("gateway.affinity_hit_ratio = %v, want 1", r)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res runResult, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json but was not reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}
