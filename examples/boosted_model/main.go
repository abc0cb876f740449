// Boosted model: train both a random forest and a gradient-boosted ensemble
// (§III-A's third model family) on synthetic HIGGS, compare their held-out
// accuracy, and score the boosted model on the backends that
// support margin aggregation (the CPU engines and both GPU libraries — the
// FPGA's majority-vote unit is vote-only and refuses).
//
// Run with:
//
//	go run ./examples/boosted_model
package main

import (
	"fmt"
	"log"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

func main() {
	train := dataset.Higgs(4000, 1)

	// Held-out comparison at a matched budget of shallow trees.
	rf, err := forest.Train(train, forest.ForestConfig{
		NumTrees:  40,
		Tree:      forest.TrainConfig{MaxDepth: 3},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	gbt, err := forest.TrainBoosted(train, forest.BoostConfig{NumTrees: 40, MaxDepth: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	data := dataset.Higgs(100_000, 2)
	fmt.Printf("held-out accuracy on 100K fresh HIGGS records (40 trees, depth 3):\n")
	fmt.Printf("  random forest:     %.3f\n", rf.Accuracy(data))
	fmt.Printf("  gradient boosting: %.3f\n\n", gbt.Accuracy(data))

	// Score the boosted model across backends.
	req := &backend.Request{Forest: gbt, Data: data}
	tb := platform.New()
	fmt.Println("scoring the boosted ensemble on 100K records:")
	for _, b := range tb.AllBackends() {
		res, err := b.Score(req)
		if err != nil {
			fmt.Printf("  %-14s unsupported: %v\n", b.Name(), err)
			continue
		}
		correct := 0
		for i, p := range res.Predictions {
			if p == data.Y[i] {
				correct++
			}
		}
		fmt.Printf("  %-14s %-10s accuracy %.3f  throughput %.2f M/s\n",
			b.Name(), sim.FormatDuration(res.Latency()),
			float64(correct)/float64(len(res.Predictions)), res.Throughput()/1e6)
	}
}
