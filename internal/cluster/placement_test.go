package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// bestDeviceScan is the placement rank computed from scratch: recount every
// non-draining replica by host, app-by-host and app-by-zone, then walk every
// device of every eligible host. bestDevice keeps those counts as state and
// prunes hosts by a bound; it must pick the same device.
func bestDeviceScan(c *Cluster, a *app) *device {
	appOnHost := make([]int, len(c.hosts))
	totalOnHost := make([]int, len(c.hosts))
	appInZone := make([]int, c.cfg.zones())
	for _, h := range c.hosts {
		for _, d := range h.devices {
			for _, rep := range d.replicas {
				if rep.draining {
					continue
				}
				totalOnHost[h.id]++
				if rep.app == a {
					appOnHost[h.id]++
					appInZone[h.zone]++
				}
			}
		}
	}
	var best *device
	var bestKey [5]int64
	for _, h := range c.hosts {
		if !h.alive || h.partitioned || h.cordoned {
			continue
		}
		for _, d := range h.devices {
			if d.freeBytes < a.cfg.WeightBytes {
				continue
			}
			key := [5]int64{int64(appInZone[h.zone]), int64(appOnHost[h.id]), int64(totalOnHost[h.id]), int64(len(d.replicas)), -d.freeBytes}
			if best == nil || less5(key, bestKey) {
				best, bestKey = d, key
			}
		}
	}
	return best
}

// checkPlacement returns "" when the kept placement state equals a recount
// (each host's non-draining replicas and its fewest-replicas summary, each
// app's non-draining replicas by host and by zone) and bestDevice picks
// bestDeviceScan's device for every app; otherwise the first difference.
func checkPlacement(c *Cluster) string {
	for _, h := range c.hosts {
		live, fewest, fewestFree := 0, -1, int64(0)
		for _, d := range h.devices {
			for _, rep := range d.replicas {
				if !rep.draining {
					live++
				}
			}
			switch n := len(d.replicas); {
			case fewest < 0 || n < fewest:
				fewest, fewestFree = n, d.freeBytes
			case n == fewest:
				fewestFree = max(fewestFree, d.freeBytes)
			}
		}
		if h.live != live || h.fewest != fewest || h.fewestFree != fewestFree {
			return fmt.Sprintf("host%d: kept live=%d fewest=%d fewestFree=%d, recount %d %d %d",
				h.id, h.live, h.fewest, h.fewestFree, live, fewest, fewestFree)
		}
	}
	for _, a := range c.apps {
		onHost := make([]int, len(c.hosts))
		inZone := make([]int, c.cfg.zones())
		for _, rep := range a.replicas {
			if rep != nil && !rep.draining {
				onHost[rep.dev.host.id]++
				inZone[rep.dev.host.zone]++
			}
		}
		if !slices.Equal(onHost, a.onHost) || !slices.Equal(inZone, a.inZone) {
			return fmt.Sprintf("%s: kept by host %v by zone %v, recount %v %v", a.cfg.Name, a.onHost, a.inZone, onHost, inZone)
		}
		if got, want := c.bestDevice(a), bestDeviceScan(c, a); got != want {
			return fmt.Sprintf("%s: bestDevice picks %s, the full scan %s", a.cfg.Name, devName(got), devName(want))
		}
	}
	return ""
}

func devName(d *device) string {
	if d == nil {
		return "none"
	}
	return fmt.Sprintf("host%d/dev%d", d.host.id, d.idx)
}

// placementFootprints are the weight sizes FuzzPlacement's apps draw from:
// mixed, so devices with equal replica counts differ in free bytes and the
// free-bytes filter turns devices away.
var placementFootprints = []int64{256 << 20, 1 << 30, 3 << 30, 5 << 30}

// FuzzPlacement decodes a small fleet (1–8 hosts, 1–4 devices per host,
// 1–3 zones, 1–3 apps of mixed footprints under light load) and a sequence
// of operations — place, scale-down, graceful drain with a deadline,
// finalize (advance the clock past completions and drain deadlines), kill,
// revive, partition, heal and cordon toggle — and after every operation
// holds the kept placement state to checkPlacement.
func FuzzPlacement(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0x12, 0, 0, 0, 1, 0, 2, 3, 3, 0, 0, 1, 1, 3, 0})
	f.Add([]byte{7, 3, 2, 0x3a, 0, 1, 0, 2, 4, 2, 0, 0, 5, 2, 6, 5, 0, 1, 7, 5, 8, 1, 0, 0, 3, 4, 2, 1, 8, 1})
	f.Add([]byte{1, 3, 0, 0x3f, 0, 1, 0, 2, 0, 1, 1, 0, 2, 0, 3, 2, 0, 2, 3, 1})
	// Mixed footprints where only the bound's device terms separate hosts:
	// one host of two devices, and three hosts of one device each.
	f.Add([]byte("0101000000"))
	f.Add([]byte("200200"))
	f.Add([]byte{5, 2, 2, 0x27, 2, 0, 2, 1, 3, 0, 4, 0, 4, 4, 0, 2, 0, 0, 5, 0, 6, 3, 3, 3, 7, 3, 0, 1, 8, 2, 8, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		hosts, devs := int(in[0])%8+1, int(in[1])%4+1
		zones := min(int(in[2])%3+1, hosts)
		apps := make([]AppConfig, int(in[3])%3+1)
		for i := range apps {
			apps[i] = testApp(fmt.Sprint("APP", i), 1500, 1)
			apps[i].WeightBytes = placementFootprints[int(in[3])>>(2+2*i)%len(placementFootprints)]
		}
		c, err := New(Config{
			Hosts: hosts, DevicesPerHost: devs, Zones: zones,
			Router:    BoundedHash,
			Apps:      apps,
			Autoscale: AutoscaleConfig{Disabled: true},
			Seed:      int64(in[2]),
		})
		if err != nil {
			return // the initial replicas do not fit
		}
		if msg := checkPlacement(c); msg != "" {
			t.Fatalf("after New: %s", msg)
		}
		ops := in[4:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%9, int(ops[i+1])
			a, h := c.apps[arg%len(c.apps)], c.hosts[arg%len(c.hosts)]
			switch op {
			case 0:
				c.place(a) // no room is a valid outcome
			case 1:
				if rep := c.newestRemovable(a); rep != nil {
					c.scaleDown(a, rep, 0)
				}
			case 2:
				var live []*replica
				for _, rep := range a.replicas {
					if rep != nil && !rep.draining {
						live = append(live, rep)
					}
				}
				if len(live) > 0 {
					c.drainReplica(live[arg/len(c.apps)%len(live)], 1e-3*float64(arg%4+1))
				}
			case 3:
				c.Run(c.loop.Now() + 1e-3*float64(arg%5+1))
			case 4:
				c.killHost(h, "host-kill")
			case 5:
				c.reviveHost(h, "revived")
			case 6:
				c.partitionHost(h)
			case 7:
				c.healPartition(h)
			case 8:
				if h.cordoned {
					c.uncordon(h)
				} else {
					c.cordon(h)
				}
			}
			if msg := checkPlacement(c); msg != "" {
				t.Fatalf("op %d (kind %d, arg %d) at t=%v: %s", i/2, op, arg, c.loop.Now(), msg)
			}
		}
	})
}

// TestPlaceDetailMatchesSprintf: the appended place detail is the line the
// format string gives, byte for byte, at zero, large and negative counts,
// long and non-ASCII app names, every version and both canary states.
func TestPlaceDetailMatchesSprintf(t *testing.T) {
	for _, app := range []string{"", "MLP0", "LSTM1-tiny", "ünïcode app", strings.Repeat("x", 200)} {
		for _, n := range []int{0, 7, 999, 1 << 40, -3} {
			for _, bytes := range []int64{0, 12 << 20, DeviceWeightBytes, -1} {
				for version := 0; version <= 3; version++ {
					for _, canary := range []bool{false, true} {
						want := fmt.Sprintf("%s replica r%d on host%d/dev%d (%d B weights, %d B free)",
							app, n, n+1, n+2, bytes, DeviceWeightBytes-bytes)
						if version > 1 {
							want += fmt.Sprintf(" v%d", version)
						}
						if canary {
							want += " canary"
						}
						if got := placeDetail(app, n, n+1, n+2, bytes, DeviceWeightBytes-bytes, version, canary); got != want {
							t.Fatalf("placeDetail = %q, want %q", got, want)
						}
					}
				}
			}
		}
	}
}
