package federation

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/topology"
)

// BenchmarkFederationAdmit measures the router's own share of an
// admission: closed-loop clients that each hold a window of circuits
// (release the oldest, then Connect), so every operation pays candidate
// ordering, the plane round trip, registration, and the release — and,
// on the two-faulted fabrics, denials and failovers, which the healthy
// single-plane replay behind federation.connect_self_us never reaches.
// Beside denied/op and failovers/op it reports misses/op, the contention
// denials of planes whose published rows said the pair would route (how
// stale the view ran), and opens/op, the breaker openings per operation:
// contention denials open nothing, so it stays 0 unless a plane is
// blocked by its faults.
// Run with -cpu 1,2: the admit path takes no router-wide lock, so the
// second CPU should not be spent waiting on the first.
func BenchmarkFederationAdmit(b *testing.B) {
	const (
		clients      = 32 // at every -cpu value, so occupancy does not move with it
		holdPerPlane = 10 // circuits a client keeps open, per plane: ≈ 60 % of FT(3,8,8)
	)
	for _, planes := range []int{1, 4} {
		for _, policy := range []Policy{PolicyHash, PolicyLeastLoaded} {
			for _, faulted := range []int{0, 2} {
				if faulted > planes {
					continue // one plane has no second plane to fault
				}
				name := fmt.Sprintf("planes=%d/policy=%s/healthy", planes, policy)
				if faulted > 0 {
					name = fmt.Sprintf("planes=%d/policy=%s/two-faulted", planes, policy)
				}
				b.Run(name, func(b *testing.B) {
					cfg := Config{Policy: policy}
					for i := 0; i < planes; i++ {
						cfg.Planes = append(cfg.Planes, PlaneConfig{
							Fabric: fabric.Config{
								Tree:      topology.MustNew(3, 8, 8),
								BatchSize: 4,
								MaxWait:   200 * time.Microsecond,
							},
						})
					}
					r, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer r.Close(context.Background())
					for i := 0; i < faulted; i++ {
						surf := r.planes[i].surf
						if _, _, err := surf.Fail(faults.Uniform(surf.Tree(), 0.10, int64(1+i))); err != nil {
							b.Fatal(err)
						}
					}
					nodes, hold := r.Nodes(), holdPerPlane*planes
					var denied, seed atomic.Uint64
					b.SetParallelism(clients / runtime.GOMAXPROCS(0))
					b.ReportAllocs()
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						g := lcg(seed.Add(2654435761))
						ctx := context.Background()
						held := make([]*Handle, 0, hold)
						for pb.Next() {
							if len(held) == hold {
								held[0].Release()
								held = append(held[:0], held[1:]...)
							}
							h, err := r.Connect(ctx, g.next(nodes), g.next(nodes))
							if err != nil {
								denied.Add(1)
								continue
							}
							held = append(held, h)
						}
						for _, h := range held {
							h.Release()
						}
					})
					b.StopTimer()
					var opens, misses uint64
					for _, p := range r.planes {
						opens += p.opens.Load()
						misses += p.hintMisses.Load()
					}
					b.ReportMetric(float64(denied.Load())/float64(b.N), "denied/op")
					b.ReportMetric(float64(r.failovers.Load())/float64(b.N), "failovers/op")
					b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
					b.ReportMetric(float64(opens)/float64(b.N), "opens/op")
				})
			}
		}
	}
}
