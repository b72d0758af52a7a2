package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// swapForTest installs r as the default recorder and restores the
// previous one when the test ends.
func swapForTest(t *testing.T, r Recorder) {
	t.Helper()
	prev := SwapDefault(r)
	t.Cleanup(func() { SetDefault(prev) })
}

func TestConcurrentCountersAndHistograms(t *testing.T) {
	g := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add("ctr", 1)
				g.Add("ctr2", 3)
				g.Observe("hist", int64(i%4096)+1)
				g.Set("gauge", int64(w))
			}
		}(w)
	}
	wg.Wait()

	if got := g.Counter("ctr"); got != workers*perWorker {
		t.Errorf("ctr = %d, want %d", got, workers*perWorker)
	}
	if got := g.Counter("ctr2"); got != 3*workers*perWorker {
		t.Errorf("ctr2 = %d, want %d", got, 3*workers*perWorker)
	}
	s := g.Snapshot()
	h := s.Histograms["hist"]
	if h.Count != workers*perWorker {
		t.Errorf("hist count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, c := range h.Buckets {
		bucketTotal += c
	}
	if bucketTotal != h.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, h.Count)
	}
	if h.Min != 1 || h.Max != perWorker {
		t.Errorf("min/max = %d/%d, want 1/%d", h.Min, h.Max, perWorker)
	}
	// Sum of 1..4096 cycling: each worker observes (i%4096)+1 for
	// i in [0, perWorker).
	var wantSum int64
	for i := 0; i < perWorker; i++ {
		wantSum += int64(i%4096) + 1
	}
	wantSum *= workers
	if h.Sum != wantSum {
		t.Errorf("hist sum = %d, want %d", h.Sum, wantSum)
	}
	if gv := s.Gauges["gauge"]; gv < 0 || gv >= workers {
		t.Errorf("gauge = %d, want in [0,%d)", gv, workers)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	g := NewRegistry()
	bounds := histBounds
	// One observation exactly on each bound (inclusive), one past the
	// last bound (overflow bucket).
	for _, b := range bounds {
		g.Observe("h", b)
	}
	g.Observe("h", bounds[len(bounds)-1]+1)
	h := g.Snapshot().Histograms["h"]
	for i := range bounds {
		if h.Buckets[i] != 1 {
			t.Errorf("bucket %d = %d, want 1", i, h.Buckets[i])
		}
	}
	if over := h.Buckets[len(bounds)]; over != 1 {
		t.Errorf("overflow bucket = %d, want 1", over)
	}
}

// TestDisabledPathAllocs locks in the "pay ~nothing when disabled"
// contract: with the Nop recorder installed, spans, counters, and
// observations must not allocate at all.
func TestDisabledPathAllocs(t *testing.T) {
	swapForTest(t, nil) // nil restores Nop
	if Enabled() {
		t.Fatal("Nop recorder should report disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Start(PhaseSenderMask)
		Add(CtrOTInstances, 7)
		Observe(PhaseReceiverInterpolate, 42)
		Set(GaugeSessionsActive, 3)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanRecordsElapsed(t *testing.T) {
	g := NewRegistry()
	swapForTest(t, g)
	sp := Start("phase.test_ns")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	h := g.Snapshot().Histograms["phase.test_ns"]
	if h.Count != 1 {
		t.Fatalf("span count = %d, want 1", h.Count)
	}
	if h.Sum < int64(time.Millisecond) {
		t.Errorf("span recorded %dns, want >= 1ms", h.Sum)
	}
}

func TestZeroSpanEndIsSafe(t *testing.T) {
	var sp Span
	sp.End() // must not panic
	swapForTest(t, nil)
	Start("x").End() // disabled: also inert
}

func TestSnapshotJSONSchema(t *testing.T) {
	g := NewRegistry()
	g.Add(CtrBytesIn, 10)
	g.Set(GaugeSessionsActive, 2)
	g.Observe(PhaseSenderMask, 5000)
	raw, err := json.Marshal(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters[CtrBytesIn] != 10 || round.Gauges[GaugeSessionsActive] != 2 {
		t.Errorf("round-tripped snapshot lost values: %+v", round)
	}
	if h := round.Histograms[PhaseSenderMask]; h.Count != 1 || h.Sum != 5000 {
		t.Errorf("round-tripped histogram lost values: %+v", h)
	}
}

func TestWriteTextAndHandler(t *testing.T) {
	g := NewRegistry()
	g.Add(CtrBytesOut, 99)
	g.Observe(PhaseReceiverMask, 2048)
	var sb strings.Builder
	if err := g.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"transport_bytes_out 99",
		"ompe_receiver_mask_ns_count 1",
		"ompe_receiver_mask_ns_sum 2048",
		`ompe_receiver_mask_ns_bucket{le="4096"} 1`,
		`ompe_receiver_mask_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q in:\n%s", want, text)
		}
	}

	srv := httptest.NewServer(NewMux(g))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(body.String(), "transport_bytes_out 99") {
		t.Errorf("/metrics missing counter:\n%s", body.String())
	}
	// pprof index must be mounted on the same mux.
	resp2, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", resp2.StatusCode)
	}
}

func TestSwapDefaultRestores(t *testing.T) {
	g := NewRegistry()
	prev := SwapDefault(g)
	if Default() != Recorder(g) {
		t.Error("SwapDefault did not install new recorder")
	}
	SetDefault(prev)
	if Default() != prev {
		t.Error("SetDefault did not restore previous recorder")
	}
}

func TestPhaseOfSimilarityRound(t *testing.T) {
	cases := map[int]string{
		1: PhaseSimCentroid,
		2: PhaseSimNormal,
		3: PhaseSimArea,
		9: "similarity.round.other_ns",
	}
	for round, want := range cases {
		if got := PhaseOfSimilarityRound(round); got != want {
			t.Errorf("round %d -> %q, want %q", round, got, want)
		}
	}
}
