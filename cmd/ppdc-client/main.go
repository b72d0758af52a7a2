// Command ppdc-client runs privacy-preserving protocols against a remote
// ppdc-trainer:
//
//	ppdc-client classify -addr host:7707 -sample "0.1,-0.3,..."
//	ppdc-client classify -addr host:7707 -dataset diabetes -n 20
//	ppdc-client classify -addr host:7707 -batch 64 -inflight 4 -n 256
//	ppdc-client similarity -addr host:7707 -dataset diabetes -seed 2
//
// In classify mode the client opens one IKNP session (a base phase at dial
// time, then two messages per batch) and its samples never leave the
// process in the clear; in similarity mode the client trains its own
// linear model and learns only the triangle metric T.
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppdc-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: ppdc-client <classify|similarity> [flags]")
	}
	mode := args[0]
	fs := flag.NewFlagSet("ppdc-client "+mode, flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7707", "trainer address")
		sample   = fs.String("sample", "", "comma-separated sample to classify")
		dsName   = fs.String("dataset", "diabetes", "synthetic dataset for test samples / own model")
		n        = fs.Int("n", 5, "number of test samples to classify")
		seed     = fs.Uint64("seed", 2, "synthetic data seed (client side)")
		redial   = fs.Int("redial", 0, "redial up to this many times when the session dies mid-query (against a ppdc-gateway fleet, a fresh session fails over to a surviving replica)")
		resume   = fs.Bool("resume", false, "offer session resumption — harvest the trainer's ticket at clean close, and (with -redial) present it on the next dial to skip the base OTs")
		batch    = fs.Int("batch", 0, "samples per batched request (0 = one request per sample)")
		inflight = fs.Int("inflight", 1, "batches kept in flight on the connection (with -batch)")

		timeout     = fs.Duration("timeout", transport.DefaultDialTimeout, "per-attempt dial timeout")
		retries     = fs.Int("retries", transport.DefaultMaxAttempts, "total dial attempts (exponential backoff + jitter between them)")
		msgDeadline = fs.Duration("msg-deadline", transport.DefaultMessageDeadline, "per-message deadline; 0 disables")
		metricsAddr = fs.String("metrics-addr", "", "serve plain-text /metrics and /debug/pprof on this address (empty = disabled)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		maddr, msrv, err := obs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer func() { _ = msrv.Close() }()
		fmt.Printf("metrics and pprof on http://%s/metrics\n", maddr)
	}
	opts := transport.Options{
		DialTimeout:     *timeout,
		MessageDeadline: *msgDeadline,
		MaxAttempts:     *retries,
		OfferResume:     *resume,
	}
	if *msgDeadline <= 0 {
		opts.MessageDeadline = transport.NoDeadline
	}
	switch mode {
	case "classify":
		if *batch < 0 {
			return fmt.Errorf("-batch must be >= 0")
		}
		if *inflight < 1 {
			return fmt.Errorf("-inflight must be >= 1")
		}
		if *inflight > 1 && *batch == 0 {
			return fmt.Errorf("-inflight > 1 needs -batch > 0 (pipelining keeps whole batches in flight)")
		}
		return runClassify(*addr, *sample, *dsName, *n, *seed, *batch, *inflight, *redial, opts)
	case "similarity":
		return runSimilarity(*addr, *dsName, *seed, opts)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

func runClassify(addr, sampleCSV, dsName string, n int, seed uint64, batch, inflight, redial int, opts transport.Options) error {
	ctx := context.Background()
	var classifyFn func([]float64) (int, error)
	var batchFn func([][]float64) ([]int, error)
	// dim is the trainer's sample dimension, known once a direct session
	// has its spec (the fleet client dials lazily, so it stays 0 there).
	dim := 0
	if redial > 0 {
		client := gateway.NewFleetClient(nil, addr, opts, rand.Reader, redial)
		defer func() { _ = client.Close() }()
		classifyFn = func(sample []float64) (int, error) {
			labels, err := client.ClassifyBatch(ctx, [][]float64{sample})
			if err != nil {
				return 0, err
			}
			return labels[0], nil
		}
		if batch > 0 {
			batchFn = func(samples [][]float64) ([]int, error) {
				return client.ClassifyPipelined(ctx, samples, batch, inflight)
			}
		}
		fmt.Printf("fleet client: sessions redial up to %d time(s) on failure\n", redial)
	} else {
		client, err := transport.DialClassifyFastContext(ctx, addr, opts, rand.Reader)
		if err != nil {
			return err
		}
		defer func() { _ = client.Close() }()
		spec := client.Spec()
		dim = spec.Dim
		classifyFn = client.Classify
		if batch > 0 {
			batchFn = func(samples [][]float64) ([]int, error) {
				return client.ClassifyPipelined(ctx, samples, batch, inflight)
			}
		}
		fmt.Printf("connected: %s kernel, %d dims, OT group %s\n", spec.Kernel.Kind, spec.Dim, spec.GroupName)
	}

	ds, err := dataset.SpecByName(dsName)
	if err != nil {
		return err
	}
	if sampleCSV != "" {
		s, err := parseSample(sampleCSV, ds.Dim)
		if err != nil {
			return err
		}
		label, err := classifyFn(s)
		if err != nil {
			return err
		}
		fmt.Printf("predicted class: %+d\n", label)
		return nil
	}

	if dim != 0 && ds.Dim != dim {
		return fmt.Errorf("dataset %s has %d dims; trainer expects %d", dsName, ds.Dim, dim)
	}
	_, test, err := dataset.Generate(ds, dataset.Options{Seed: seed})
	if err != nil {
		return err
	}
	if n > test.Len() {
		n = test.Len()
	}
	correct := 0
	start := time.Now()
	if batchFn != nil {
		labels, err := batchFn(test.X[:n])
		if err != nil {
			return err
		}
		for i, label := range labels {
			if label == test.Y[i] {
				correct++
			}
			fmt.Printf("sample %2d: predicted %+d, true %+d\n", i, label, test.Y[i])
		}
	} else {
		for i := 0; i < n; i++ {
			label, err := classifyFn(test.X[i])
			if err != nil {
				return err
			}
			if label == test.Y[i] {
				correct++
			}
			fmt.Printf("sample %2d: predicted %+d, true %+d\n", i, label, test.Y[i])
		}
	}
	fmt.Printf("accuracy %d/%d in %v (%v/query)\n",
		correct, n, time.Since(start).Round(time.Millisecond),
		(time.Since(start) / time.Duration(n)).Round(time.Millisecond))
	return nil
}

func runSimilarity(addr, dsName string, seed uint64, opts transport.Options) error {
	ds, err := dataset.SpecByName(dsName)
	if err != nil {
		return err
	}
	train, _, err := dataset.Generate(ds, dataset.Options{Seed: seed})
	if err != nil {
		return err
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: ds.LinC})
	if err != nil {
		return err
	}
	w, err := model.LinearWeights()
	if err != nil {
		return err
	}
	fmt.Printf("trained own linear model on %s (%d support vectors)\n", train.Name, model.NumSupportVectors())
	start := time.Now()
	res, err := transport.DialSimilarityContext(context.Background(), addr, w, model.Bias, opts, rand.Reader)
	if err != nil {
		return err
	}
	fmt.Printf("similarity T = %.6f (10³T = %.3f) in %v\n", res.T, res.T*1000, time.Since(start).Round(time.Millisecond))
	fmt.Println("smaller T means more similar trained models")
	return nil
}

func parseSample(csv string, dim int) ([]float64, error) {
	parts := strings.Split(csv, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("sample has %d components; trainer expects %d", len(parts), dim)
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
