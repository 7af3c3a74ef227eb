// Model placement: deciding which device a new replica lands on. The
// binding constraint is the paper's Weight Memory — a replica pins its
// model's full weight footprint in the device's 8 GiB weight DRAM — and
// the objective is spread: replicas of one app on distinct hosts (so one
// host death cannot take an app below quorum), and devices shared only
// when no empty one fits (co-located replicas split the device's
// execution engine).
package cluster

import (
	"fmt"
	"strconv"

	"tpusim/internal/serve"
)

// place creates and registers one replica of the app on the best
// available device, or fails when no alive device has the weight capacity.
// The version is the app's current one — v1 until a rollout finishes.
func (c *Cluster) place(a *app) (*replica, error) {
	return c.placeReplica(a, a.curVersion, false)
}

// placeReplica places one replica at an explicit model version. A canary
// replica stays out of the router — the rollout controller diverts its
// traffic share by key until the canary verdict promotes it.
func (c *Cluster) placeReplica(a *app, version int, canary bool) (*replica, error) {
	d := c.bestDevice(a)
	if d == nil {
		return nil, fmt.Errorf("no alive device with %d weight bytes free for %s", a.cfg.WeightBytes, a.cfg.Name)
	}
	rep := &replica{id: a.nextID, app: a, dev: d, version: version, svcScale: c.versionScale(version),
		lane: serve.Lane[request](a.plan)}
	a.nextID++
	d.freeBytes -= a.cfg.WeightBytes
	d.replicas = append(d.replicas, rep)
	a.replicas = append(a.replicas, rep) // rep.id == len(a.replicas)
	h := d.host
	h.live++
	a.onHost[h.id]++
	a.inZone[h.zone]++
	h.summarize()
	if !canary {
		if err := a.router.Add(rep.id, 1); err != nil {
			return nil, err
		}
	}
	c.log(d.host.id, "place", placeDetail(a.cfg.Name, rep.id, d.host.id, d.idx, a.cfg.WeightBytes, d.freeBytes, version, canary), subject{})
	return rep, nil
}

// placeDetail is a place event's detail, "<app> replica r<id> on
// host<h>/dev<d> (<w> B weights, <f> B free)", then " v<version>" past v1
// and " canary" for a canary. cluster.New logs one per replica, so it is
// appended into one buffer, not formatted by fmt.
func placeDetail(app string, id, host, dev int, weight, free int64, version int, canary bool) string {
	var buf [128]byte
	b := append(buf[:0], app...)
	b = append(b, " replica r"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " on host"...)
	b = strconv.AppendInt(b, int64(host), 10)
	b = append(b, "/dev"...)
	b = strconv.AppendInt(b, int64(dev), 10)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, weight, 10)
	b = append(b, " B weights, "...)
	b = strconv.AppendInt(b, free, 10)
	b = append(b, " B free)"...)
	if version > 1 {
		b = append(b, " v"...)
		b = strconv.AppendInt(b, int64(version), 10)
	}
	if canary {
		b = append(b, " canary"...)
	}
	return string(b)
}

// versionScale is the service-time multiplier a version serves at: the
// rollout plan's factor for v2+, exactly 1 otherwise.
func (c *Cluster) versionScale(version int) float64 {
	if version >= 2 && c.ro != nil {
		return c.ro.plan.Factor
	}
	return 1
}

// bestDevice picks the placement target: an alive device with footprint
// room, ranked spread-first — fewest replicas of this app in the host's
// failure domain (zone anti-affinity: one dark zone should not take an app
// below quorum), then fewest of this app on the host (one host death should
// not halve a replica set), then fewest replicas on the host overall, then
// fewest on the device, then most free weight bytes. Draining replicas
// count only on the device. With Zones <= 1 every host shares zone 0 and
// the ranking reduces exactly to the pre-zone ordering. The scan-order
// tie-break keeps placement deterministic.
//
// The first three terms are kept counts (placeReplica adds, markDraining
// takes away) and the host's summary bounds the last two, so a host whose
// bound does not rank strictly ahead of the best so far holds no device
// that could replace it and is skipped whole.
func (c *Cluster) bestDevice(a *app) *device {
	var best *device
	var bestKey [5]int64
	for _, h := range c.hosts {
		if !h.alive || h.partitioned || h.cordoned {
			// A partitioned host is alive but unreachable from the router:
			// placing a replica there would route traffic into the black hole.
			// A cordoned host is mid-upgrade: placing there would immediately
			// drain the new replica again.
			continue
		}
		key := [5]int64{int64(a.inZone[h.zone]), int64(a.onHost[h.id]), int64(h.live), int64(h.fewest), -h.fewestFree}
		if best != nil && !less5(key, bestKey) {
			continue
		}
		for _, d := range h.devices {
			if d.freeBytes < a.cfg.WeightBytes {
				continue
			}
			key[3], key[4] = int64(len(d.replicas)), -d.freeBytes
			if best == nil || less5(key, bestKey) {
				best, bestKey = d, key
			}
		}
	}
	return best
}

// summarize refreshes the host's placement bound: the fewest replicas on
// one of its devices, and the most free weight bytes among the devices
// that hold that few. Only placeReplica and finalizeRemoval change a
// device's replicas or free bytes, and both call it.
func (h *host) summarize() {
	h.fewest, h.fewestFree = len(h.devices[0].replicas), h.devices[0].freeBytes
	for _, d := range h.devices[1:] {
		switch n := len(d.replicas); {
		case n < h.fewest:
			h.fewest, h.fewestFree = n, d.freeBytes
		case n == h.fewest:
			h.fewestFree = max(h.fewestFree, d.freeBytes)
		}
	}
}

// less5 is lexicographic comparison of placement rank keys.
func less5(a, b [5]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// markDraining is the one place a replica starts draining: the router
// stops admitting to it, any armed fill timer is voided, and it leaves the
// placement counts. It keeps its device slot and weight bytes until
// finalizeRemoval.
func (rep *replica) markDraining() {
	a, h := rep.app, rep.dev.host
	a.router.Remove(rep.id) // no-op for canaries, which never joined
	rep.draining = true
	rep.fillGen++
	h.live--
	a.onHost[h.id]--
	a.inZone[h.zone]--
}

// finalizeRemoval frees a drained replica's device residency. The router
// entry was removed when the drain began, so no traffic can arrive.
func (c *Cluster) finalizeRemoval(rep *replica) {
	a := rep.app
	d := rep.dev
	for i, r := range d.replicas {
		if r == rep {
			d.replicas = append(d.replicas[:i], d.replicas[i+1:]...)
			break
		}
	}
	d.freeBytes += a.cfg.WeightBytes
	d.host.summarize()
	c.tel.onRetire(rep)
	a.replicas[rep.id] = nil
	c.log(d.host.id, "drain", fmt.Sprintf("%s replica r%d removed from host%d/dev%d",
		a.cfg.Name, rep.id, d.host.id, d.idx), subject{})
	if rep.waveDrain {
		rep.waveDrain = false
		if ro := c.ro; ro != nil && ro.stage == RolloutWave {
			ro.waveRemaining--
			if ro.waveRemaining == 0 {
				c.waveDrained()
			}
		}
	}
}
