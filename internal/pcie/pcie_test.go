package pcie

import (
	"math"
	"testing"
)

func TestGen3x16(t *testing.T) {
	l := Gen3x16()
	if l.GBs != 14 {
		t.Errorf("bandwidth = %v, want 14 GB/s sustained", l.GBs)
	}
}

func TestBytesPerCycle(t *testing.T) {
	l := Gen3x16()
	// 14 GB/s at 700 MHz = 20 bytes/cycle.
	if got := l.BytesPerCycle(700); math.Abs(got-20) > 1e-9 {
		t.Errorf("BytesPerCycle = %v, want 20", got)
	}
}

func TestTransferCycles(t *testing.T) {
	l := Gen3x16()
	// 1 MiB at 20 B/cycle.
	want := float64(1<<20) / 20
	if got := l.TransferCycles(1<<20, 700); math.Abs(got-want) > 1e-6 {
		t.Errorf("TransferCycles = %v, want %v", got, want)
	}
	if got := l.TransferCycles(0, 700); got != 0 {
		t.Errorf("zero transfer = %v", got)
	}
}

func TestTransferSeconds(t *testing.T) {
	l := Gen3x16()
	// 14 GB over a 14 GB/s link takes one second regardless of clock.
	got := l.TransferSeconds(14e9, 700)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("TransferSeconds = %v, want 1", got)
	}
	got2 := l.TransferSeconds(14e9, 1400)
	if math.Abs(got2-1) > 1e-9 {
		t.Errorf("clock should not change wall time: %v", got2)
	}
}

// Gen3x16 is the TPU's production link, the one tpu's pcieGBs prices.
func Gen3x16() Link { return Link{GBs: 14} }

// TransferSeconds returns wall time to move n bytes.
func (l Link) TransferSeconds(n int64, clockMHz float64) float64 {
	return l.TransferCycles(n, clockMHz) / (clockMHz * 1e6)
}
