// Command ppdc-trainer trains an SVM on a dataset and serves
// privacy-preserving classification (and linear similarity evaluation)
// over TCP. The model never leaves the process; clients learn only
// predicted labels / the similarity metric.
//
// Usage:
//
//	ppdc-trainer [-addr :7707] [-dataset diabetes] [-kernel linear|poly] \
//	             [-data file.libsvm] [-seed 1] \
//	             [-max-sessions 0] [-msg-deadline 2m] [-drain-timeout 30s] \
//	             [-metrics-addr 127.0.0.1:7708]
//
// The model serves through a version registry: on SIGHUP the process
// re-reads -load-model and atomically hot-swaps the new version in — new
// sessions bind to it immediately, in-flight sessions drain on the
// version they started with.
//
// On SIGINT/SIGTERM the server drains: it stops accepting, lets in-flight
// sessions finish for up to -drain-timeout, then force-closes stragglers
// (and shuts the -metrics-addr listener down with the same budget).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppdc-trainer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppdc-trainer", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":7707", "listen address")
		dsName     = fs.String("dataset", "diabetes", "synthetic dataset to train on (see catalog)")
		dataFile   = fs.String("data", "", "train on a LIBSVM-format file instead of synthetic data")
		kernelName = fs.String("kernel", "linear", "kernel: linear or poly")
		resume     = fs.Bool("resume", true, "mint session resumption tickets for clients that offer them; false declines every offer and ticket (those clients fall back to full handshakes)")
		seed       = fs.Uint64("seed", 1, "synthetic data seed")
		c          = fs.Float64("C", 0, "soft-margin penalty (0 = dataset default)")
		saveModel  = fs.String("save-model", "", "write the trained model (JSON) and continue serving")
		loadModel  = fs.String("load-model", "", "serve a previously saved model instead of training")

		maxSessions  = fs.Int("max-sessions", 0, "max concurrent sessions (0 = unlimited); extra clients are rejected")
		msgDeadline  = fs.Duration("msg-deadline", transport.DefaultMessageDeadline, "per-message deadline; 0 disables")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
		metricsAddr  = fs.String("metrics-addr", "", "serve plain-text /metrics and /debug/pprof on this address (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var msrv *http.Server
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		var maddr net.Addr
		var err error
		maddr, msrv, err = obs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer func() { _ = msrv.Close() }()
		log.Printf("metrics and pprof on http://%s/metrics", maddr)
	}
	var model *svm.Model
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			return err
		}
		model, err = svm.ReadModel(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		log.Printf("loaded %s model from %s (%d support vectors, %d dims)",
			model.Kernel.Kind, *loadModel, model.NumSupportVectors(), model.Dim)
	} else {
		train, spec, err := loadTraining(*dsName, *dataFile, *seed)
		if err != nil {
			return err
		}
		kernel := svm.Linear()
		penalty := spec.LinC
		if *kernelName == "poly" {
			kernel = svm.PaperPolynomial(train.Dim())
			penalty = spec.PolyC
		} else if *kernelName != "linear" {
			return fmt.Errorf("unknown kernel %q", *kernelName)
		}
		if *c != 0 {
			penalty = *c
		}
		log.Printf("training %s SVM on %s (%d samples, %d dims)", kernel.Kind, train.Name, train.Len(), train.Dim())
		model, err = svm.Train(train.X, train.Y, svm.Config{Kernel: kernel, C: penalty})
		if err != nil {
			return err
		}
		log.Printf("trained: %d support vectors", model.NumSupportVectors())
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return err
		}
		if err := svm.WriteModel(f, model); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("saved model to %s", *saveModel)
	}

	// Serve through a version registry: the boot model is version 1, and
	// SIGHUP republishes -load-model as the next version without dropping
	// in-flight sessions.
	modelReg := registry.New(classify.Params{})
	boot, err := modelReg.Publish(model)
	if err != nil {
		return err
	}
	srv := transport.NewServerSource(modelReg)
	srv.MaxSessions = *maxSessions
	srv.DisableResume = !*resume
	if *msgDeadline <= 0 {
		srv.MessageDeadline = transport.NoDeadline
	} else {
		srv.MessageDeadline = *msgDeadline
	}
	if model.Kernel.Kind == svm.KernelLinear {
		w, err := model.LinearWeights()
		if err != nil {
			return err
		}
		srv.EnableSimilarity(w, model.Bias, similarity.Params{})
		log.Printf("similarity service enabled")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("serving privacy-preserving classification on %s (x25519 OT group, %d-bit field)",
		ln.Addr(), boot.Trainer.Spec().FieldBits)

	// Hot-reload on SIGHUP: republish -load-model as the next version.
	// In-flight sessions drain on the version they started with; only the
	// classification model swaps (the similarity service stays pinned to
	// the boot model's weights).
	hupCh := make(chan os.Signal, 1)
	signal.Notify(hupCh, syscall.SIGHUP)
	defer signal.Stop(hupCh)
	go func() {
		for range hupCh {
			if *loadModel == "" {
				log.Printf("SIGHUP: hot-reload re-reads -load-model, which is not set; ignoring")
				continue
			}
			e, err := modelReg.PublishFile(*loadModel)
			if err != nil {
				log.Printf("SIGHUP: reload failed, still serving version %d: %v", modelReg.Version(), err)
				continue
			}
			log.Printf("SIGHUP: published model version %d from %s (%d support vectors)",
				e.Version, *loadModel, e.Model.NumSupportVectors())
		}
	}()

	// Drain gracefully on SIGINT/SIGTERM: stop accepting, let in-flight
	// sessions finish for up to -drain-timeout, force-close the rest. The
	// metrics listener shuts down under the same budget so the process
	// exits with no lingering HTTP socket.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var draining atomic.Bool
	drained := make(chan error, 1)
	go func() {
		sig, ok := <-sigCh
		if !ok {
			return
		}
		log.Printf("%v: draining sessions for up to %v", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		draining.Store(true)
		drainErr := srv.Shutdown(ctx)
		if msrv != nil {
			if err := msrv.Shutdown(ctx); err != nil {
				log.Printf("metrics shutdown: %v", err)
			}
		}
		drained <- drainErr
	}()
	err = srv.Serve(ln)
	if draining.Load() {
		// Signal-triggered shutdown: Serve returning net.ErrClosed is the
		// clean path; report only a failed drain.
		if shutdownErr := <-drained; shutdownErr != nil && !errors.Is(shutdownErr, net.ErrClosed) {
			return fmt.Errorf("drain: %w", shutdownErr)
		}
		log.Printf("drained; bye")
		return nil
	}
	return err
}

func loadTraining(dsName, dataFile string, seed uint64) (*dataset.Dataset, dataset.Spec, error) {
	if dataFile != "" {
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, dataset.Spec{}, err
		}
		defer func() { _ = f.Close() }()
		d, err := dataset.ParseLIBSVM(f, dataFile, 0)
		if err != nil {
			return nil, dataset.Spec{}, err
		}
		return d, dataset.Spec{LinC: 1, PolyC: 100}, nil
	}
	spec, err := dataset.SpecByName(dsName)
	if err != nil {
		return nil, dataset.Spec{}, err
	}
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	if err != nil {
		return nil, dataset.Spec{}, err
	}
	return train, spec, nil
}
