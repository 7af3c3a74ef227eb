// Package datacenter models fleet provisioning: how many servers, racks,
// and megawatts a platform needs to serve a given inference demand. It
// quantifies the TPU's origin story (Section 2): "a projection where people
// use voice search for 3 minutes a day using speech recognition DNNs would
// require our datacenters to double to meet computation demands, which
// would be very expensive to satisfy with conventional CPUs" — and the
// resulting mandate "to improve cost-performance by 10X over GPUs".
package datacenter

import (
	"fmt"
	"math"
	"strings"

	"tpusim/internal/baseline"
	"tpusim/internal/models"
	"tpusim/internal/platform"
)

// Demand is an inference workload to provision for: requests per second
// per app, in Table 1 order app names.
type Demand map[string]float64

// UniformScaleDemand builds a demand proportional to the datacenter mix:
// total requests/s split by each app's deployment share.
func UniformScaleDemand(totalIPS float64) Demand {
	d := Demand{}
	var sum float64
	for _, b := range models.All() {
		sum += b.DeployShare
	}
	for _, b := range models.All() {
		d[b.Model.Name] = totalIPS * b.DeployShare / sum
	}
	return d
}

// Provision is the fleet required on one platform.
type Provision struct {
	Platform platform.Kind
	// Servers is the server count (ceil of per-app requirements summed).
	Servers float64
	// TDPMegawatts is provisioned power at server TDP (what the facility
	// must supply: "you must supply sufficient power and cooling when
	// hardware is at full power").
	TDPMegawatts float64
	// BusyMegawatts is power at measured busy consumption (electricity
	// bill at full load).
	BusyMegawatts float64
}

// serverIPS returns one server's throughput for an app on a platform;
// tpuIPS holds the TPU's per-die inferences/second (host overhead
// included) per app, which the caller simulates (experiments.SimulateTPU).
func serverIPS(k platform.Kind, b models.Benchmark, tpuIPS map[string]float64) (float64, error) {
	var ips float64
	var err error
	switch k {
	case platform.CPU:
		ips, err = baseline.CPU().SLAIPS(b)
	case platform.GPU:
		ips, err = baseline.GPU().SLAIPS(b)
	case platform.TPU:
		ips = tpuIPS[b.Model.Name]
	default:
		return 0, fmt.Errorf("datacenter: unsupported platform %v", k)
	}
	if err == nil && !(ips > 0) {
		err = fmt.Errorf("datacenter: no %v throughput for %s", k, b.Model.Name)
	}
	return ips * float64(platform.MustSpecs(k).Server.Dies), err
}

// ProvisionFor computes the fleet one platform needs for a demand; tpuIPS
// is the TPU's per-die throughput per app (see serverIPS).
func ProvisionFor(k platform.Kind, d Demand, tpuIPS map[string]float64) (Provision, error) {
	spec := platform.MustSpecs(k)
	p := Provision{Platform: k}
	for _, b := range models.All() {
		rps, ok := d[b.Model.Name]
		if !ok || rps == 0 {
			continue
		}
		ips, err := serverIPS(k, b, tpuIPS)
		if err != nil {
			return Provision{}, err
		}
		// Provision at 70% target utilization: queueing headroom for the
		// 99th-percentile limit.
		const targetUtil = 0.7
		p.Servers += rps / (ips * targetUtil)
	}
	p.Servers = math.Ceil(p.Servers)
	p.TDPMegawatts = p.Servers * spec.Server.TDPWatts / 1e6
	p.BusyMegawatts = p.Servers * spec.Server.BusyWatts / 1e6
	return p, nil
}

// Compare provisions all three platforms for a demand, the TPU at the
// per-die throughput per app tpuIPS.
func Compare(d Demand, tpuIPS map[string]float64) ([]Provision, error) {
	var out []Provision
	for _, k := range []platform.Kind{platform.CPU, platform.GPU, platform.TPU} {
		p, err := ProvisionFor(k, d, tpuIPS)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Render formats a provisioning comparison.
func Render(ps []Provision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %10s %10s\n", "Platform", "Servers", "TDP (MW)", "Busy (MW)")
	for _, p := range ps {
		fmt.Fprintf(&b, "%-8s %12.0f %10.2f %10.2f\n", p.Platform, p.Servers, p.TDPMegawatts, p.BusyMegawatts)
	}
	return b.String()
}
