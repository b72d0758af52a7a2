package transport_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/similarity"
	"repro/internal/svm"
	"repro/internal/transport"
)

func trainLinear(t *testing.T, seed uint64) (*svm.Model, *dataset.Dataset) {
	t.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize = 60
	spec.TestSize = 30
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	return model, test
}

func quietServer(t *testing.T, trainer *classify.Trainer) *transport.Server {
	t.Helper()
	srv := transport.NewServer(trainer)
	// Server goroutines may outlive the test body; a t.Logf here would
	// panic ("Log in goroutine after test has completed").
	srv.Logf = nil
	return srv
}

// TestClassifyOverPipe drives a full classification session over an
// in-memory duplex connection.
func TestClassifyOverPipe(t *testing.T) {
	model, test := trainLinear(t, 11)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	cc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want, err := model.Classify(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		d, err := model.Decision(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d) < 1e-6 {
			continue
		}
		got, err := cc.Classify(test.X[i])
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: got %d, want %d", i, got, want)
		}
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestClassifyOverTCPConcurrent runs several concurrent clients against a
// real TCP listener.
func TestClassifyOverTCPConcurrent(t *testing.T) {
	model, test := trainLinear(t, 12)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	const clients = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			cc, err := transport.DialClassifyFast(ln.Addr().String(), 5*time.Second, rand.Reader)
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = cc.Close() }()
			sample := test.X[idx]
			want, err := model.Classify(sample)
			if err != nil {
				errCh <- err
				return
			}
			got, err := cc.Classify(sample)
			if err != nil {
				errCh <- err
				return
			}
			if got != want {
				errCh <- &mismatchError{got: got, want: want}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type mismatchError struct{ got, want int }

func (e *mismatchError) Error() string { return "label mismatch" }

// TestSimilarityOverPipe drives the three-round similarity protocol over
// an in-memory connection and checks it against the plaintext metric.
func TestSimilarityOverPipe(t *testing.T) {
	modelA, _ := trainLinear(t, 13)
	modelB, _ := trainLinear(t, 14)
	wA, err := modelA.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	wB, err := modelB.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	params := similarity.Params{}
	trainer, err := classify.NewTrainer(modelA, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	srv.EnableSimilarity(wA, modelA.Bias, params)

	serverSide, clientSide := net.Pipe()
	go srv.ServeConn(serverSide)

	got, err := transport.EvaluateSimilarity(clientSide, wB, modelB.Bias, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want, err := similarity.EvaluateLinear(wA, modelA.Bias, wB, modelB.Bias, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TSquared-want.TSquared) > 1e-4*(1+math.Abs(want.TSquared)) {
		t.Fatalf("T² over transport %g, plaintext %g", got.TSquared, want.TSquared)
	}
}

// TestUnknownServiceRejected checks the handshake's failure path,
// including a peer that still asks for the retired one-shot "classify"
// service: it must fail fast with a typed remote error, not a spec.
func TestUnknownServiceRejected(t *testing.T) {
	model, _ := trainLinear(t, 15)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	for _, service := range []string{"nonsense", "classify"} {
		serverSide, clientSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverSide)
		}()

		conn := transport.NewConn(clientSide)
		if err := conn.Send(&transport.Hello{Service: service}); err != nil {
			t.Fatal(err)
		}
		_, err := transport.Recv[*transport.Done](conn)
		if !errors.Is(err, transport.ErrRemote) {
			t.Fatalf("service %q: got %v, want ErrRemote", service, err)
		}
		if want := fmt.Sprintf("unknown service %q", service); !strings.Contains(err.Error(), want) {
			t.Fatalf("service %q: error %v does not say %s", service, err, want)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("server session did not end")
		}
	}
}

// trainPoly trains a paper-polynomial model on a small diabetes draw.
func trainPoly(t *testing.T, seed uint64) *svm.Model {
	t.Helper()
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		t.Fatal(err)
	}
	spec.TrainSize, spec.TestSize = 40, 10
	train, _, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.PaperPolynomial(spec.Dim), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// kernelSimServer serves the kernelized similarity protocol for model.
func kernelSimServer(t *testing.T, model *svm.Model) *transport.Server {
	t.Helper()
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	srv.EnableKernelSimilarity(similarity.Params{})
	return srv
}

// TestKernelSimilarityOverPipe drives the kernelized similarity protocol
// over an in-memory connection against the plaintext kernel metric.
func TestKernelSimilarityOverPipe(t *testing.T) {
	modelA, modelB := trainPoly(t, 21), trainPoly(t, 22)
	srv := kernelSimServer(t, modelA)

	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	got, err := transport.EvaluateKernelSimilarity(clientSide, modelB, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want, err := similarity.EvaluateKernel(modelA, modelB, similarity.DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TSquared-want.TSquared) > 2e-3*(1+math.Abs(want.TSquared)) {
		t.Fatalf("kernel T² over transport %g, plaintext %g", got.TSquared, want.TSquared)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestKernelSimilarityHostileNumSupport: |S_B| is a field Bob declares on
// the wire. A ~60-byte clear share claiming 2^24 support vectors, followed
// by a hang-up, must end the session without the server allocating
// anything sized by the claim.
func TestKernelSimilarityHostileNumSupport(t *testing.T) {
	srv := kernelSimServer(t, trainPoly(t, 21))
	serverSide, clientSide := net.Pipe()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	conn := transport.NewConn(clientSide)
	if err := conn.Send(&transport.Hello{Service: "similarity-kernel"}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Recv[*similarity.KernelSpec](conn); err != nil {
		t.Fatal(err)
	}
	hostile := &similarity.KernelClearShare{KmBmB: 1, KwBwB: 1, NumSupport: 1 << 24, AlphaSum: big.NewInt(1)}
	if err := conn.Send(hostile); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Recv[*similarity.AreaScale](conn); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end")
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	if grew >= 16<<20 {
		t.Fatalf("session allocated %d MB for a declared |S_B| of 2^24", grew>>20)
	}
	t.Logf("session allocated %d KB", grew>>10)
}

// TestTruncatedStreamErrors: a mid-protocol connection drop must surface
// as an error on both sides, never a hang or panic.
func TestTruncatedStreamErrors(t *testing.T) {
	model, _ := trainLinear(t, 23)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	cc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the connection and try to classify.
	_ = clientSide.Close()
	if _, err := cc.Classify(make([]float64, 8)); err == nil {
		t.Fatal("classification over a dead connection should fail")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not end after connection drop")
	}
}

// TestSimilarityServiceNotEnabled: requesting similarity from a server
// that only classifies must produce a remote error.
func TestSimilarityServiceNotEnabled(t *testing.T) {
	model, _ := trainLinear(t, 24)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	w, err := model.LinearWeights()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.EvaluateSimilarity(clientSide, w, model.Bias, rand.Reader); err == nil {
		t.Fatal("similarity against a classify-only server should fail")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestRecvRejectsWrongType: the typed layer must reject out-of-order
// message types cleanly.
func TestRecvRejectsWrongType(t *testing.T) {
	a, b := net.Pipe()
	ca := transport.NewConn(a)
	cb := transport.NewConn(b)
	go func() { _ = ca.Send(&transport.Done{}) }()
	if _, err := transport.Recv[*transport.Hello](cb); err == nil {
		t.Fatal("wrong payload type should fail")
	}
	_ = ca.Close()
	_ = cb.Close()
}

// TestRemoteErrorSurfaces: a SendErr on one side surfaces as ErrRemote on
// the other.
func TestRemoteErrorSurfaces(t *testing.T) {
	a, b := net.Pipe()
	ca := transport.NewConn(a)
	cb := transport.NewConn(b)
	go func() { _ = ca.SendErr(errSentinel) }()
	_, err := transport.Recv[*transport.Hello](cb)
	if err == nil || !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	_ = ca.Close()
	_ = cb.Close()
}

var errSentinel = errors.New("sentinel failure")

// TestFastClassifyOverPipe: the IKNP fast session over an in-memory
// connection must label like the plaintext model across several queries.
func TestFastClassifyOverPipe(t *testing.T) {
	model, test := trainLinear(t, 33)
	trainer, err := classify.NewTrainer(model, classify.Params{})
	if err != nil {
		t.Fatal(err)
	}
	srv := quietServer(t, trainer)
	serverSide, clientSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()

	fc, err := transport.NewFastClassifyClient(clientSide, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < test.Len() && checked < 6; i++ {
		d, err := model.Decision(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d) < 1e-6 {
			continue
		}
		want, err := model.Classify(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := fc.Classify(test.X[i])
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sample %d: fast label %d, want %d", i, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no samples checked")
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not end")
	}
}

// TestDialFailures: dialing a dead address must fail fast and cleanly for
// every client constructor.
func TestDialFailures(t *testing.T) {
	const dead = "127.0.0.1:1" // reserved port, nothing listens
	if _, err := transport.DialClassifyFast(dead, 200*time.Millisecond, rand.Reader); err == nil {
		t.Fatal("DialClassifyFast to dead address should fail")
	}
	if _, err := transport.DialSimilarity(dead, []float64{1, 0}, 0, 200*time.Millisecond, rand.Reader); err == nil {
		t.Fatal("DialSimilarity to dead address should fail")
	}
}
