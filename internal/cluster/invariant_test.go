package cluster

import (
	"fmt"
	"math"
	"testing"

	"tpusim/internal/runtime"
)

// TestRouterAndHealthInvariants steps the pinned scenarios in 0.1 ms
// segments and checks three invariants after every segment:
//
//   - every replica the router knows carries a load gauge equal to the
//     requests it actually holds (queued plus in flight), so the
//     least-loaded and bounded-hash policies see the fleet as it is;
//   - every Healthy replica sits on an alive host the router can reach;
//   - the kept placement counts equal a recount, and bestDevice picks the
//     full scan's device for every app (checkPlacement);
//   - every logged latency is finite and >= +0, never -0: the domain on
//     which stats.ChunkedPercentiles orders values by their bits.
//
// The router clamps a load gauge at zero, so a gauge that starts short
// hides its error until the replica drains; only a check at every step
// catches it.
func TestRouterAndHealthInvariants(t *testing.T) {
	withZoneOutage := func(t *testing.T) *Cluster {
		c := rolloutCluster(t, goodPlan(), 4)
		chaos(t, c, "zone-down=3@0.55,zone-up=3@1")
		return c
	}
	for _, sc := range []struct {
		name    string
		build   func(t *testing.T) *Cluster
		horizon float64
	}{
		{"golden", goldenCluster, 6},
		{"chaos", func(t *testing.T) *Cluster { return chaosCluster(t, nil) }, 6},
		{"rollout-good", func(t *testing.T) *Cluster { return rolloutCluster(t, goodPlan(), 0) }, 3},
		{"rollout-bad", func(t *testing.T) *Cluster { return rolloutCluster(t, badPlan(), 0) }, 3},
		{"rollout-zones", func(t *testing.T) *Cluster { return rolloutCluster(t, goodPlan(), 4) }, 3},
		{"rollout-chaos", withZoneOutage, 4},
	} {
		t.Run(sc.name, func(t *testing.T) {
			c := sc.build(t)
			read := map[*latencyLog]int{}
			for k := 1; float64(k)*1e-4 <= sc.horizon; k++ {
				c.Run(float64(k) * 1e-4)
				if msg := checkInvariants(c, read); msg != "" {
					t.Fatalf("t=%v: %s", c.loop.Now(), msg)
				}
			}
		})
	}
}

// checkInvariants returns the first violated invariant, or "". read holds
// how many of each latency log's entries earlier calls checked; only the
// ones logged since are read.
func checkInvariants(c *Cluster, read map[*latencyLog]int) string {
	for _, a := range c.apps {
		logs := []*latencyLog{&a.latencies}
		if a.ro != nil {
			logs = append(logs, &a.ro.cohorts[0].lats, &a.ro.cohorts[1].lats)
		}
		for _, l := range logs {
			n := 0
			for _, c := range l.chunks {
				n += len(c)
			}
			if n < read[l] {
				read[l] = 0 // a cohort reset at an observation start
			}
			for i := read[l]; i < n; i++ {
				if lat := l.chunks[i/latencyChunk][i%latencyChunk]; math.IsNaN(lat) || math.IsInf(lat, 0) || math.Signbit(lat) {
					return fmt.Sprintf("%s: logged latency %v is not finite and >= +0", a.cfg.Name, lat)
				}
			}
			read[l] = n
		}
		for _, id := range a.router.IDs() {
			rep := a.replicas[id]
			if held, load := int64(rep.lane.Len()+len(rep.inFlight)), a.router.get(id).load; load != held {
				return fmt.Sprintf("%s r%d: router load %d, replica holds %d", a.cfg.Name, id, load, held)
			}
		}
		for _, rep := range a.replicas {
			if rep == nil || rep.state != runtime.Healthy {
				continue
			}
			if h := rep.dev.host; !h.alive || h.partitioned {
				return fmt.Sprintf("%s r%d: Healthy on unreachable host%d", a.cfg.Name, rep.id, h.id)
			}
		}
	}
	return checkPlacement(c)
}
