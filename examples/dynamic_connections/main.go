// Dynamic connections through the serving path: long-lived circuits
// arriving and departing over time — the scenario the paper motivates
// ("especially beneficial to setup long-lived connections") — driven by
// concurrent clients on the wall clock. Extension E4 admits the same
// churn through the same fabric manager, one request per epoch on
// simulated time; here concurrent clients call Connect/Release against
// one epoch-batched manager, and the sweep raises offered load (client
// count × held circuits) and reports blocking probability and admission
// throughput.
//
//	go run ./examples/dynamic_connections
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/report"
)

func main() {
	tree, err := repro.NewFatTree(3, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tree)

	tb := report.NewTable("Blocking probability vs offered load through the fabric serving path (epoch batch 32)",
		"clients", "held/client", "offered", "blocking", "admissions/sec", "mean epoch", "p95 admit ms")
	for _, load := range []struct{ clients, held int }{
		{8, 2}, {32, 4}, {64, 8}, {128, 8}, {256, 8},
	} {
		fab, err := repro.NewFabric(tree, repro.FabricConfig{
			BatchSize: 32,
			MaxWait:   500 * time.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < load.clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var held []*repro.FabricHandle
				for i := 0; i < 100; i++ {
					// Churn: retire the oldest circuit once the client
					// holds its quota, then request a fresh one.
					for len(held) >= load.held {
						if err := held[0].Release(); err != nil {
							log.Fatal(err)
						}
						held = held[1:]
					}
					h, err := fab.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
					if err == nil {
						held = append(held, h)
					} else if !errors.Is(err, repro.ErrUnroutable) {
						log.Fatal(err)
					}
				}
				for _, h := range held {
					if err := h.Release(); err != nil {
						log.Fatal(err)
					}
				}
			}(int64(c) + 1)
		}
		start := time.Now()
		wg.Wait()
		elapsed := time.Since(start)
		if err := fab.Close(context.Background()); err != nil {
			log.Fatal(err)
		}
		s := fab.Stats()
		blocking := float64(s.Rejected) / float64(s.Offered)
		tb.AddRow(
			fmt.Sprint(load.clients),
			fmt.Sprint(load.held),
			fmt.Sprint(s.Offered),
			report.Percent(blocking),
			fmt.Sprintf("%.0f", float64(s.Offered)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", s.EpochSize.Mean),
			fmt.Sprintf("%.3f", s.EpochLatencyMS.P95),
		)
	}
	tb.AddNote("a blocked circuit is lost; blocking rises with held circuits as the fabric saturates")
	tb.AddNote("all admissions run through the epoch-batched Level-wise engine (internal/fabric)")
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
