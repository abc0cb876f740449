// Quickstart: train a random forest on IRIS, score a replicated batch on
// the CPU engine, and print accuracy plus the simulated latency breakdown.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/engines/cpusk"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
)

func main() {
	// 1. Load IRIS and hold out every fifth row: a fifth of each class.
	iris := dataset.Iris()
	train, test := iris.Head(0), iris.Head(0)
	for i, y := range iris.Y {
		part := train
		if i%5 == 0 {
			part = test
		}
		part.X, part.Y = append(part.X, iris.Row(i)...), append(part.Y, y)
	}

	// 2. Train a 16-tree random forest, 10 levels deep — the paper's
	//    flagship depth.
	f, err := forest.Train(train, forest.ForestConfig{
		NumTrees:  16,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test accuracy: %.3f\n", f.Accuracy(test))

	// 3. Replicate the dataset to 100K scoring records, as the paper does
	//    (§IV-A), and score on the 52-thread Scikit-learn-style engine.
	scoring := iris.Replicate(100_000)
	cpu := cpusk.New(hw.DefaultCPU(), 52)
	res, err := cpu.Score(&backend.Request{Forest: f, Data: scoring})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nscored %d records on %s\n", len(res.Predictions), cpu.Name())
	fmt.Printf("simulated latency: %v, throughput: %.2f M records/s\n\n",
		res.Latency(), res.Throughput()/1e6)
	fmt.Println("latency breakdown:")
	fmt.Print(res.Timeline.Aggregate())
}
