package tpu

import (
	"context"

	"tpusim/internal/isa"
)

// Invocation is one intercepted program execution: the real execution as
// a closure, and the seam through which a hook upsets the card's state. A
// hook may call Run zero times (fail without running) or once (the normal
// case). The host DMA buffer is not part of it: a fault reaches the data
// only through Inject, where the device's integrity checks watch.
type Invocation struct {
	// Run performs the real device execution exactly once.
	Run func() (Counters, error)
	// Inject queues a targeted bit flip the device applies at the flip
	// kind's deterministic point during Run — the hardware-upset seam. Call
	// before Run; flips the program gives no opportunity to apply (e.g. a
	// PE flip in a program with no matmul) are dropped when the run ends.
	Inject func(Flip)
}

// RunHook intercepts every program execution on a device created with a
// Config carrying it. It is the hardware-fault injection point: a hook can
// fail the run, stall it (honouring ctx for context-aware hangs), inflate
// its cycle count (thermal throttle / slow PCIe), or flip bits on the card
// through Invocation.Inject. A nil hook costs one nil check per run.
//
// Hooks must be safe for concurrent use: one driver installs the same hook
// on every device it creates (a TPU card fails as a unit, however many
// model contexts run on it).
type RunHook func(ctx context.Context, inv Invocation) (Counters, error)

// RunCtx executes a program like Run, threading a context through the
// device's RunHook (if any). The context is only consulted by the hook —
// the cycle simulator itself is not interruptible — so with a nil hook
// RunCtx is Run plus one nil check.
func (d *Device) RunCtx(ctx context.Context, p *isa.Program, host []int8) (Counters, error) {
	// Flips queued for a previous invocation but never applied (the run
	// errored before their application point) do not leak into this one.
	d.pendingFlips = d.pendingFlips[:0]
	if d.cfg.Hook == nil {
		return d.run(p, host)
	}
	return d.cfg.Hook(ctx, Invocation{
		Run:    func() (Counters, error) { return d.run(p, host) },
		Inject: d.inject,
	})
}
