// Distributed deployment: the trainer and the client run as separate
// endpoints connected over TCP — the deployment shape the paper's
// "distributed systems" setting assumes.
//
// Run everything in one process (spawns an in-process server):
//
//	go run ./examples/network
//
// Or run the two roles on different machines:
//
//	go run ./examples/network -role trainer -addr :7707
//	go run ./examples/network -role client  -addr host:7707
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	ppdc "repro"
)

func main() {
	role := flag.String("role", "demo", "demo (both roles in-process), trainer, or client")
	addr := flag.String("addr", "127.0.0.1:7707", "listen/dial address")
	flag.Parse()

	var err error
	switch *role {
	case "demo":
		err = runDemo()
	case "trainer":
		err = runTrainer(*addr)
	case "client":
		err = runClient(*addr)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// trainModel builds the dataset and model both roles agree on for the
// demo (in a real deployment only the trainer would have this data).
func trainModel() (*ppdc.Model, *ppdc.Dataset, error) {
	spec, err := datasetSpec()
	if err != nil {
		return nil, nil, err
	}
	train, test, err := ppdc.GenerateDataset(spec, ppdc.DatasetOptions{Seed: 7})
	if err != nil {
		return nil, nil, err
	}
	model, err := ppdc.Train(train.X, train.Y, ppdc.TrainConfig{Kernel: ppdc.LinearKernel(), C: spec.LinC})
	if err != nil {
		return nil, nil, err
	}
	return model, test, nil
}

func datasetSpec() (ppdc.DatasetSpec, error) {
	for _, s := range ppdc.DatasetCatalog() {
		if s.Name == "breast-cancer" {
			return s, nil
		}
	}
	return ppdc.DatasetSpec{}, fmt.Errorf("breast-cancer spec missing from catalog")
}

func runTrainer(addr string) error {
	model, _, err := trainModel()
	if err != nil {
		return err
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		return err
	}
	srv := ppdc.NewServer(trainer)
	w, err := model.LinearWeights()
	if err != nil {
		return err
	}
	srv.EnableSimilarity(w, model.Bias, ppdc.SimilarityParams{})
	log.Printf("trainer listening on %s", addr)
	return ppdc.Serve(srv, addr)
}

func runClient(addr string) error {
	_, test, err := trainModel()
	if err != nil {
		return err
	}
	client, err := ppdc.DialClassify(addr, 10*time.Second, rand.Reader)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	fmt.Printf("connected to trainer at %s (%s kernel, %d dims)\n", addr, client.Spec().Kernel.Kind, client.Spec().Dim)
	correct := 0
	const queries = 10
	for i := 0; i < queries; i++ {
		label, err := client.Classify(test.X[i])
		if err != nil {
			return err
		}
		if label == test.Y[i] {
			correct++
		}
	}
	fmt.Printf("classified %d private samples over the network: %d/%d correct\n", queries, correct, queries)
	return nil
}

func runDemo() error {
	model, _, err := trainModel()
	if err != nil {
		return err
	}
	trainer, err := ppdc.NewTrainer(model, ppdc.ClassifyParams{})
	if err != nil {
		return err
	}
	srv := ppdc.NewServer(trainer)
	srv.Logf = nil // quiet for the demo
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	log.Printf("in-process trainer serving on %s", ln.Addr())

	if err := runClient(ln.Addr().String()); err != nil {
		return err
	}
	fmt.Println("demo complete: model and samples never crossed the wire in the clear")
	return nil
}
