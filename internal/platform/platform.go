// Package platform encodes Table 2 of the paper: the benchmarked server
// platforms (Haswell E5-2699 v3, Nvidia K80, and the TPU) with their die and
// server-level characteristics. Every downstream model — rooflines, power,
// perf/Watt — draws its constants from here so the whole repo agrees on one
// source of truth.
package platform

import "fmt"

// Kind identifies one of the three benchmarked platforms.
type Kind int

const (
	// CPU is the 18-core dual-socket Haswell E5-2699 v3 server.
	CPU Kind = iota
	// GPU is the Nvidia K80 (2 dies per card, 4 cards per server).
	GPU
	// TPU is the Tensor Processing Unit (4 per server).
	TPU
	// TPUPrime is the hypothetical improved TPU of Section 7: same die,
	// GDDR5 weight memory (5x bandwidth). Its clock stays at 700 MHz; the
	// paper concludes "TPU' just has faster memory".
	TPUPrime
)

// String returns the platform's display name.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "Haswell"
	case GPU:
		return "K80"
	case TPU:
		return "TPU"
	case TPUPrime:
		return "TPU'"
	default:
		return fmt.Sprintf("platform(%d)", int(k))
	}
}

// Die describes a single die (Table 2 left half, per-die figures).
type Die struct {
	Name string
	// ClockMHz is the sustained clock (no Turbo / no Boost; Section 3).
	ClockMHz float64
	// PeakTOPS8 is peak 8-bit integer TeraOps/s (2 ops per MAC); zero when
	// the platform has no benchmarked 8-bit mode.
	PeakTOPS8 float64
	// PeakTOPSFP is peak floating-point TeraOps/s.
	PeakTOPSFP float64
	// MemGBs is memory bandwidth in GB/s seen by inference weights.
	MemGBs float64
	// OnChipMiB is software-visible on-chip memory.
	OnChipMiB float64
	// TDPWatts, IdleWatts, BusyWatts are the die-level power figures.
	TDPWatts, IdleWatts, BusyWatts float64
}

// PeakTOPS returns the peak the roofline uses: 8-bit if available, else FP.
func (d Die) PeakTOPS() float64 {
	if d.PeakTOPS8 > 0 {
		return d.PeakTOPS8
	}
	return d.PeakTOPSFP
}

// RidgeOI returns the roofline ridge point in MAC-ops per weight byte:
// peakTOPS / (2 * bandwidth). See DESIGN.md "Unit conventions".
func (d Die) RidgeOI() float64 {
	return d.PeakTOPS() * 1e12 / (2 * d.MemGBs * 1e9)
}

// RooflineTOPS evaluates the roofline at operational intensity oi
// (MAC-ops per weight byte): min(peak, 2*oi*BW).
func (d Die) RooflineTOPS(oi float64) float64 {
	bw := 2 * oi * d.MemGBs * 1e9 / 1e12
	if bw < d.PeakTOPS() {
		return bw
	}
	return d.PeakTOPS()
}

// Server describes a benchmarked server (Table 2 right half).
type Server struct {
	Dies int
	// TDPWatts, IdleWatts, BusyWatts are measured server power.
	TDPWatts, IdleWatts, BusyWatts float64
}

// Platform bundles a die and its server configuration.
type Platform struct {
	Kind   Kind
	Die    Die
	Server Server
}

// Specs returns the Table 2 data for a platform kind.
func Specs(k Kind) (Platform, error) {
	switch k {
	case CPU:
		return Platform{
			Kind: CPU,
			Die: Die{
				Name:     "Haswell E5-2699 v3",
				ClockMHz: 2300,
				// 2.6 TOPS 8-bit, 1.3 TOPS FP (Table 2). The evaluation
				// uses FP because only one DNN had an 8-bit CPU port
				// (Section 8 fallacy discussion).
				PeakTOPS8:  0, // roofline uses FP; see CPU8Bit below
				PeakTOPSFP: 1.3,
				MemGBs:     51,
				OnChipMiB:  51,
				TDPWatts:   145, IdleWatts: 41, BusyWatts: 145,
			},
			Server: Server{Dies: 2, TDPWatts: 504, IdleWatts: 159, BusyWatts: 455},
		}, nil
	case GPU:
		return Platform{
			Kind: GPU,
			Die: Die{
				Name:     "Nvidia K80 (per die)",
				ClockMHz: 560, // Boost mode disabled (Section 3)
				// No Boost and single-die accounting reduce peak from 8.7
				// to 2.8 TOPS; SECDED reduces bandwidth from 240 to 160.
				PeakTOPSFP: 2.8,
				MemGBs:     160,
				OnChipMiB:  8,
				TDPWatts:   150, IdleWatts: 25, BusyWatts: 98,
			},
			Server: Server{Dies: 8, TDPWatts: 1838, IdleWatts: 357, BusyWatts: 991},
		}, nil
	case TPU:
		return Platform{
			Kind: TPU,
			Die: Die{
				Name:      "TPU",
				ClockMHz:  700,
				PeakTOPS8: 92,
				MemGBs:    34,
				OnChipMiB: 28,
				TDPWatts:  75, IdleWatts: 28, BusyWatts: 40,
			},
			Server: Server{Dies: 4, TDPWatts: 861, IdleWatts: 290, BusyWatts: 384},
		}, nil
	case TPUPrime:
		p, err := Specs(TPU)
		if err != nil {
			return Platform{}, err
		}
		p.Kind = TPUPrime
		p.Die.Name = "TPU' (GDDR5 weight memory)"
		// "Designing an interface circuit for GDDR5 memory, as in the K80,
		// would improve Weight Memory bandwidth by more than a factor of
		// five, shifting its roofline ridge point from 1350 to 250."
		p.Die.MemGBs = p.Die.PeakTOPS8 * 1e12 / (2 * 250) / 1e9 // 184 GB/s
		// "GDDR5 would also increase the TPU system power budget from 861
		// Watts to about 900 Watts" (+10W per die over four TPUs).
		p.Server.TDPWatts = 900
		p.Die.TDPWatts += 10
		p.Die.BusyWatts += 10
		p.Server.BusyWatts += 40
		return p, nil
	default:
		return Platform{}, fmt.Errorf("platform: unknown kind %d", int(k))
	}
}

// MustSpecs is Specs for the known enum values; it panics on an unknown kind
// and exists for table-driven experiment code where the kinds are constants.
func MustSpecs(k Kind) Platform {
	p, err := Specs(k)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns the three benchmarked platforms in paper order.
func All() []Platform {
	return []Platform{MustSpecs(CPU), MustSpecs(GPU), MustSpecs(TPU)}
}
