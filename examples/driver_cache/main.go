// Driver cache: the User Space Driver behaviour of Section 2 — "The User
// Space driver compiles a model the first time it is evaluated, caching the
// program image ...; the second and following evaluations run at full
// speed." This example runs repeated batches through a 4-TPU server via
// the host runtime: the server compiles the model once, each TPU loads the
// program on its first batch, and every later batch runs at full speed.
package main

import (
	"fmt"
	"log"
	"time"

	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

func main() {
	log.SetFlags(0)

	model := &nn.Model{
		Name: "ranker", Class: nn.MLP, Batch: 32, TimeSteps: 1,
		Layers: []nn.Layer{
			{Name: "fc0", Kind: nn.FC, In: 256, Out: 256, Act: fixed.ReLU},
			{Name: "fc1", Kind: nn.FC, In: 256, Out: 256, Act: fixed.ReLU},
			{Name: "fc2", Kind: nn.FC, In: 256, Out: 64, Act: fixed.Identity},
		},
	}
	params := nn.InitRandom(model, 11, 0.2)

	server, err := runtime.NewServer(4, tpu.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server with %d TPUs, model %q (%d weights)\n\n",
		server.Devices(), model.Name, model.Weights())

	// compiles counts the server's compilations across its TPUs.
	compiles := func() (n int) {
		for _, st := range server.Stats() {
			n += st.Compilations
		}
		return n
	}
	for i := 0; i < 8; i++ {
		in := tensor.NewF32(model.Batch, 256)
		in.FillRandom(int64(100+i), 1)
		before := compiles()
		wall := time.Now()
		r, err := server.Run(model, params, in)
		if err != nil {
			log.Fatal(err)
		}
		state := "resident program"
		switch {
		case compiles() > before:
			state = "compiled and loaded"
		case !r.Cached:
			state = "loaded (slow path)"
		}
		fmt.Printf("batch %d: tpu%d %-19s  device %6.1f us  host wall %8v  %d matmuls\n",
			i, i%server.Devices(), state, r.DeviceSeconds*1e6, time.Since(wall).Round(time.Microsecond), r.Counters.Matmuls)
	}
	fmt.Println("\nThe server compiled once, on batch 0; each TPU loaded its program on its")
	fmt.Println("first batch, and every later batch reused it: the paper's first-evaluation /")
	fmt.Println("steady-state split, with one answer per input from all four TPUs.")
}
