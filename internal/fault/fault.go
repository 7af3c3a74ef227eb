// Package fault is the deterministic hardware-fault injector for the
// simulated TPU fleet. It models the failure modes a production
// accelerator card actually exhibits behind a datacenter serving stack —
// the regime the paper's 99th-percentile SLA framing (Table 4) cares
// about, where one wedged or slow device dominates tail latency:
//
//   - transient run errors (ECC hiccups, driver resets): the run fails,
//     an immediate retry usually succeeds;
//   - bit flips in the card's memories and datapath (Unified Buffer,
//     weight DRAM, accumulators, matmul partial sums): the run proceeds
//     with one upset bit, injected through tpu.Invocation.Inject at a seam
//     the device's integrity tiers check;
//   - latency spikes (thermal throttle, degraded PCIe link): the run
//     completes with an inflated effective cycle count and wall time;
//   - hangs: the device stops answering for a while; only a context-aware
//     caller with a per-attempt timeout escapes;
//   - hard death: the card is gone until repaired (Revive).
//
// Everything is driven by a seeded PRNG per device, so a chaos run is
// replayable: the same Plan seed yields the same injected-fault sequence
// (kind-by-kind, pinned by TestInjectorDeterministic). The injector
// attaches to a device via tpu.Config.Hook, which the runtime driver
// installs on every device of a card, and the runtime's health state
// machine, retry/failover and hedging layers are exercised against it.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpusim/internal/tpu"
)

// Kind is one injected failure mode.
type Kind int

const (
	// KindNone means the run proceeded untouched.
	KindNone Kind = iota
	// KindDead is hard device death: this and every later run fails until
	// Revive.
	KindDead
	// KindHang stalls the run for Plan.HangSeconds (or until the context
	// is cancelled), then fails it.
	KindHang
	// KindTransient fails the run immediately without executing it.
	KindTransient
	// KindSlow executes the run, inflates its cycle count by
	// Plan.SlowFactor and stretches wall time to match.
	KindSlow
	// KindFlipUB flips one Unified Buffer SRAM bit during the run (an
	// activation upset). The run itself proceeds; whether the corruption is
	// caught depends on the device's IntegrityLevel.
	KindFlipUB
	// KindFlipWeights flips one bit of the live weight DRAM; it persists
	// across runs until a scrub repairs it from the golden image.
	KindFlipWeights
	// KindFlipAcc flips one accumulator SRAM bit in a freshly written
	// register.
	KindFlipAcc
	// KindFlipPE flips one bit of a matmul partial sum between the array
	// and the accumulators (a processing-element logic upset).
	KindFlipPE

	kindCount
)

var kindNames = [...]string{"none", "dead", "hang", "transient", "slow",
	"flip-ub", "flip-weights", "flip-acc", "flip-pe"}

// FlipTargetFor maps a bit-flip kind to the device seam it lands in,
// reporting false for non-flip kinds.
func FlipTargetFor(k Kind) (tpu.FlipTarget, bool) {
	switch k {
	case KindFlipUB:
		return tpu.FlipUB, true
	case KindFlipWeights:
		return tpu.FlipWeights, true
	case KindFlipAcc:
		return tpu.FlipAcc, true
	case KindFlipPE:
		return tpu.FlipPE, true
	}
	return 0, false
}

// String names the kind ("transient", "slow", ...).
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Injection errors. All wrap ErrInjected so callers can distinguish
// injected chaos from real bugs with errors.Is(err, ErrInjected).
var (
	ErrInjected   = errors.New("fault: injected")
	ErrTransient  = fmt.Errorf("%w: transient device error", ErrInjected)
	ErrDeviceDead = fmt.Errorf("%w: device dead", ErrInjected)
	ErrHang       = fmt.Errorf("%w: device hang", ErrInjected)
	ErrCompile    = fmt.Errorf("%w: transient compile failure", ErrInjected)
)

// Injected reports whether err (or anything it wraps) was injected by this
// package.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

// Plan is a seeded, rate-configurable chaos plan for a fleet. Rates are
// per-run probabilities in [0, 1]; their sum must stay <= 1 (one draw per
// run decides the fault kind). The zero Plan injects nothing.
type Plan struct {
	// Seed drives every injector derived from the plan. Device i mixes the
	// seed with its index, so devices fail independently but reproducibly.
	Seed int64

	// TransientRate is the probability a run fails immediately.
	TransientRate float64
	// SlowRate is the probability a run is stretched by SlowFactor.
	SlowRate float64
	// HangRate is the probability a run stalls for HangSeconds.
	HangRate float64
	// DeathRate is the probability a run kills the device permanently.
	DeathRate float64
	// FlipUBRate / FlipWeightsRate / FlipAccRate / FlipPERate are the
	// per-run probabilities of one bit flip in the corresponding structure
	// (see the KindFlip* kinds). The flip's address and bit are drawn from
	// the same seeded stream and logged as (Seq, Kind, Addr), so a campaign
	// replays exactly.
	FlipUBRate, FlipWeightsRate, FlipAccRate, FlipPERate float64

	// SlowFactor multiplies the cycle count and wall time of a slow run
	// (and every run of a statically slow device). 0 means 8x.
	SlowFactor float64
	// HangSeconds is how long a hang stalls before failing; a cancelled
	// context ends the stall early. 0 means 200 ms.
	HangSeconds float64

	// FailCompiles fails the first N slow-path compiles on each device's
	// driver with ErrCompile (transient: compile N+1 succeeds). This is the
	// deterministic probe for the compile-cache eviction path.
	FailCompiles int

	// DeadDevices are device indices dead from t=0.
	DeadDevices []int
	// SlowDevices are device indices where *every* run pays SlowFactor.
	SlowDevices []int

	// TargetedFlips are deterministic bit flips injected into the first
	// executing run on every device — the spec syntax is
	// flip=kind@addr.bit (e.g. flip=ub@0x4d2.3+weights@65536.7).
	TargetedFlips []TargetedFlip
}

// TargetedFlip is one planned deterministic bit flip.
type TargetedFlip struct {
	// Kind is one of the KindFlip* kinds.
	Kind Kind
	// Addr is the raw address draw; the device maps it into the target
	// structure's live extent at the flip's application point.
	Addr uint64
	// Bit selects the bit (masked to the structure's word width).
	Bit uint8
}

// String renders the flip in the spec syntax (kind@addr.bit).
func (f TargetedFlip) String() string {
	name := strings.TrimPrefix(f.Kind.String(), "flip-")
	return fmt.Sprintf("%s@%#x.%d", name, f.Addr, f.Bit)
}

func (p Plan) totalRate() float64 {
	return p.TransientRate + p.SlowRate + p.HangRate + p.DeathRate + p.flipRate()
}

func (p Plan) flipRate() float64 {
	return p.FlipUBRate + p.FlipWeightsRate + p.FlipAccRate + p.FlipPERate
}

// maxSlowFactor bounds Plan.SlowFactor: a run of up to 2^43 cycles (over
// three hours of device time at 700 MHz) stretched by it still counts its
// cycles in an int64, and the stall of a run of up to 2^43 ns still fits a
// time.Duration.
const maxSlowFactor = 1 << 20

// Validate checks rates and factors. Every number must be finite: a NaN
// slips past each range comparison (and makes the rates' sum NaN, so the
// injector draws nothing). The slow factor is at most maxSlowFactor and the
// hang stall inside time.Duration's range: past them a finite number wraps
// the stretched cycle count or the stall negative.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transient", p.TransientRate},
		{"slow", p.SlowRate}, {"hang", p.HangRate}, {"death", p.DeathRate},
		{"flip-ub", p.FlipUBRate}, {"flip-weights", p.FlipWeightsRate},
		{"flip-acc", p.FlipAccRate}, {"flip-pe", p.FlipPERate},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("fault: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if t := p.totalRate(); t > 1 {
		return fmt.Errorf("fault: rates sum to %v > 1", t)
	}
	if f := p.SlowFactor; f != 0 && !(f >= 1 && f <= maxSlowFactor) {
		return fmt.Errorf("fault: slow factor %v must be in [1, %d] (or 0 for the default)", f, maxSlowFactor)
	}
	if !(p.HangSeconds >= 0 && p.HangSeconds*float64(time.Second) < math.MaxInt64) {
		return fmt.Errorf("fault: hang seconds %v must be >= 0 and below %v", p.HangSeconds, time.Duration(math.MaxInt64))
	}
	if p.FailCompiles < 0 {
		return fmt.Errorf("fault: negative compile-failure count %d", p.FailCompiles)
	}
	for _, f := range p.TargetedFlips {
		if _, ok := FlipTargetFor(f.Kind); !ok {
			return fmt.Errorf("fault: targeted flip kind %v is not a flip kind", f.Kind)
		}
		if f.Bit > 31 {
			return fmt.Errorf("fault: targeted flip %s: bit %d outside [0, 31]", f, f.Bit)
		}
	}
	return nil
}

func (p Plan) slowFactor() float64 {
	if p.SlowFactor == 0 {
		return 8
	}
	return p.SlowFactor
}

func (p Plan) hangSeconds() float64 {
	if p.HangSeconds == 0 {
		return 0.2
	}
	return p.HangSeconds
}

// String renders the plan in the -chaos flag's spec syntax.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	add("transient", p.TransientRate)
	add("slow", p.SlowRate)
	add("hang", p.HangRate)
	add("death", p.DeathRate)
	add("flip-ub", p.FlipUBRate)
	add("flip-weights", p.FlipWeightsRate)
	add("flip-acc", p.FlipAccRate)
	add("flip-pe", p.FlipPERate)
	add("slowx", p.SlowFactor)
	if p.HangSeconds != 0 {
		add("hangms", p.HangSeconds*1e3)
	}
	if p.FailCompiles != 0 {
		parts = append(parts, "compile="+strconv.Itoa(p.FailCompiles))
	}
	if len(p.DeadDevices) > 0 {
		parts = append(parts, "dead="+joinInts(p.DeadDevices))
	}
	if len(p.SlowDevices) > 0 {
		parts = append(parts, "slowdev="+joinInts(p.SlowDevices))
	}
	if len(p.TargetedFlips) > 0 {
		ss := make([]string, len(p.TargetedFlips))
		for i, f := range p.TargetedFlips {
			ss[i] = f.String()
		}
		parts = append(parts, "flip="+strings.Join(ss, "+"))
	}
	return strings.Join(parts, ",")
}

func joinInts(xs []int) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = strconv.Itoa(x)
	}
	return strings.Join(ss, "+")
}

// ParsePlan parses the -chaos flag spec: comma-separated key=value pairs.
//
//	seed=7          PRNG seed (default 1)
//	rate=0.05       shorthand for transient=0.05
//	transient=0.05  per-run transient-error probability
//	slow=0.02       per-run latency-spike probability
//	hang=0.01       per-run hang probability
//	death=0.001     per-run permanent-death probability
//	slowx=8         slowdown multiplier for spikes and slow devices
//	hangms=200      hang stall in milliseconds
//	compile=2       fail the first N compiles per device
//	dead=0+2        devices dead from t=0 ('+'-separated indices)
//	slowdev=1       devices where every run is slow
//	flip-ub=0.01    per-run Unified Buffer bit-flip probability
//	flip-weights=…  per-run weight-DRAM bit-flip probability (persistent)
//	flip-acc=…      per-run accumulator bit-flip probability
//	flip-pe=…       per-run partial-sum (PE) bit-flip probability
//	flip=ub@0x4d2.3 deterministic flips for each device's first run,
//	                '+'-separated kind@addr.bit entries (kinds: ub,
//	                weights, acc, pe; addr decimal or 0x hex; bit 0-31)
func ParsePlan(spec string) (Plan, error) {
	p := Plan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	terms, bad := SpecTerms(spec)
	for _, kv := range terms {
		k, v := kv[0], kv[1]
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "rate", "transient":
			p.TransientRate, err = strconv.ParseFloat(v, 64)
		case "slow":
			p.SlowRate, err = strconv.ParseFloat(v, 64)
		case "hang":
			p.HangRate, err = strconv.ParseFloat(v, 64)
		case "death":
			p.DeathRate, err = strconv.ParseFloat(v, 64)
		case "slowx":
			p.SlowFactor, err = strconv.ParseFloat(v, 64)
		case "hangms":
			var ms float64
			ms, err = strconv.ParseFloat(v, 64)
			p.HangSeconds = ms / 1e3
		case "compile":
			p.FailCompiles, err = strconv.Atoi(v)
		case "dead":
			p.DeadDevices, err = parseInts(v)
		case "slowdev":
			p.SlowDevices, err = parseInts(v)
		case "flip-ub":
			p.FlipUBRate, err = strconv.ParseFloat(v, 64)
		case "flip-weights":
			p.FlipWeightsRate, err = strconv.ParseFloat(v, 64)
		case "flip-acc":
			p.FlipAccRate, err = strconv.ParseFloat(v, 64)
		case "flip-pe":
			p.FlipPERate, err = strconv.ParseFloat(v, 64)
		case "flip":
			p.TargetedFlips, err = parseTargetedFlips(v)
		default:
			return Plan{}, fmt.Errorf("fault: spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: spec %q: bad value for %q: %v", spec, k, err)
		}
	}
	if bad != "" {
		return Plan{}, fmt.Errorf("fault: spec %q: want key=value, got %q", spec, bad)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// SpecTerms tokenizes the spec syntax this package's plans and the
// cluster's chaos and rollout plans share: comma-separated key=value terms,
// blanks around a term trimmed, empty terms skipped. A term without '='
// ends the walk and is returned as bad, after the pairs that precede it,
// so a parser that handles the pairs first reports problems in spec order.
func SpecTerms(spec string) (pairs [][2]string, bad string) {
	terms := strings.Split(spec, ",")
	pairs = make([][2]string, 0, len(terms))
	for _, term := range terms {
		if term = strings.TrimSpace(term); term == "" {
			continue
		}
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return pairs, term
		}
		pairs = append(pairs, [2]string{k, v})
	}
	return pairs, ""
}

// flipKindByName maps the spec's short target names to kinds.
var flipKindByName = map[string]Kind{
	"ub": KindFlipUB, "weights": KindFlipWeights, "acc": KindFlipAcc, "pe": KindFlipPE,
}

// parseTargetedFlips parses '+'-separated kind@addr.bit entries.
func parseTargetedFlips(v string) ([]TargetedFlip, error) {
	var out []TargetedFlip
	for _, s := range strings.Split(v, "+") {
		s = strings.TrimSpace(s)
		kindStr, rest, ok := strings.Cut(s, "@")
		if !ok {
			return nil, fmt.Errorf("flip %q: want kind@addr.bit (e.g. ub@0x4d2.3)", s)
		}
		k, ok := flipKindByName[kindStr]
		if !ok {
			return nil, fmt.Errorf("flip %q: unknown target %q (want ub, weights, acc or pe)", s, kindStr)
		}
		addrStr, bitStr, ok := strings.Cut(rest, ".")
		if !ok {
			return nil, fmt.Errorf("flip %q: missing .bit suffix (want kind@addr.bit)", s)
		}
		addr, err := strconv.ParseUint(addrStr, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("flip %q: bad address %q: want a decimal or 0x-prefixed byte offset", s, addrStr)
		}
		bit, err := strconv.ParseUint(bitStr, 10, 8)
		if err != nil || bit > 31 {
			return nil, fmt.Errorf("flip %q: bad bit %q: want an integer in [0, 31]", s, bitStr)
		}
		out = append(out, TargetedFlip{Kind: k, Addr: addr, Bit: uint8(bit)})
	}
	return out, nil
}

func parseInts(v string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(v, "+") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// Event is one injected fault, recorded in injection order. The
// (Seq, Kind, Addr) triple is the replay key: re-running a plan with the
// same seed reproduces the identical event log, and a single event can be
// replayed in isolation via a targeted flip at the logged address.
type Event struct {
	// Seq is the run's sequence number on the device (0-based; every run
	// advances it, faulted or not).
	Seq int64
	// Kind is the injected failure mode.
	Kind Kind
	// Addr is the raw address draw of a bit-flip event (the device maps it
	// into the target structure); 0 for non-flip kinds.
	Addr uint64
}

// maxEvents bounds the per-injector event log.
const maxEvents = 4096

// Injector injects one device's faults. Create one per device with
// Plan.Injector and install Hook on the device's tpu.Config; the runtime
// server does both when given a Plan. Safe for concurrent use.
type Injector struct {
	plan   Plan
	device int

	mu         sync.Mutex
	runRNG     *rand.Rand
	dead       bool
	staticSlow float64 // >= 1; > 1 makes every run slow
	seq        int64
	compiles   int
	counts     [kindCount]int64
	events     []Event

	// pending holds the flips awaiting an executing run: the plan's
	// TargetedFlips, then FlipOnce injections. It is the injector's own
	// copy, because next truncates and reuses it.
	pending []TargetedFlip
}

// Injector builds the injector for one device index, mixing the device
// into the plan's seed so devices draw independent, reproducible streams.
func (p Plan) Injector(device int) *Injector {
	in := &Injector{
		plan:       p,
		device:     device,
		runRNG:     rand.New(rand.NewSource(p.Seed*1000003 + int64(device) + 1)),
		staticSlow: 1,
		pending:    slices.Clone(p.TargetedFlips),
	}
	for _, d := range p.DeadDevices {
		if d == device {
			in.dead = true
		}
	}
	for _, d := range p.SlowDevices {
		if d == device {
			in.staticSlow = p.slowFactor()
		}
	}
	return in
}

// Device returns the injector's device index.
func (in *Injector) Device() int { return in.device }

// Kill hard-kills the device: every subsequent run fails with
// ErrDeviceDead. Used by chaos scripts to take a device down mid-load.
// The transition is logged as one KindDead event at the current run
// sequence (subsequent failures of the dead device are not new events).
func (in *Injector) Kill() {
	in.mu.Lock()
	if !in.dead {
		in.dead = true
		in.record(KindDead, 0)
	}
	in.mu.Unlock()
}

// FlipOnce queues one deterministic bit flip for this device's next
// executing run — the SDC campaign's injection primitive (no plan rebuild,
// no RNG draw). The flip is logged as a (Seq, Kind, Addr) event when the
// run consumes it.
func (in *Injector) FlipOnce(k Kind, addr uint64, bit uint8) error {
	if _, ok := FlipTargetFor(k); !ok {
		return fmt.Errorf("fault: %v is not a flip kind", k)
	}
	if bit > 31 {
		return fmt.Errorf("fault: bit %d outside [0, 31]", bit)
	}
	in.mu.Lock()
	in.pending = append(in.pending, TargetedFlip{Kind: k, Addr: addr, Bit: bit})
	in.mu.Unlock()
	return nil
}

// Revive repairs a dead device (models a swap/reset), letting quarantine
// probes re-admit it.
func (in *Injector) Revive() {
	in.mu.Lock()
	in.dead = false
	in.mu.Unlock()
}

// SetStaticSlow makes every run pay the given factor (>= 1) from now on;
// 1 restores full speed. Used to throttle a device mid-load.
func (in *Injector) SetStaticSlow(factor float64) {
	if factor < 1 {
		factor = 1
	}
	in.mu.Lock()
	in.staticSlow = factor
	in.mu.Unlock()
}

// Counts returns injected-fault counts by kind name (kinds that never
// fired are omitted).
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := map[string]int64{}
	for k, c := range in.counts {
		if c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}

// Events returns the injected-fault log (at most maxEvents entries, in
// injection order). Runs that proceeded untouched are not logged.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// record logs one injected fault.
func (in *Injector) record(k Kind, addr uint64) {
	in.counts[k]++
	if len(in.events) < maxEvents {
		in.events = append(in.events, Event{Seq: in.seq, Kind: k, Addr: addr})
	}
}

// next draws the fault decision for one run. The cumulative order is fixed
// — death, hang, transient, slow, then the four flip kinds (ub, weights,
// acc, pe) — and is part of the determinism contract: a plan's seed fully
// determines the (kind, addr) sequence. flips carries the bit flips for an
// executing run: the plan's targeted flips (first executing run only), any
// FlipOnce injections, and the rate-drawn flip.
func (in *Injector) next() (kind Kind, slowFactor float64, flips []tpu.Flip) {
	in.mu.Lock()
	defer in.mu.Unlock()
	defer func() { in.seq++ }()
	slowFactor = in.staticSlow
	if in.dead {
		// Repeated failures of an already-dead device are not new events.
		return KindDead, 1, nil
	}
	if in.plan.totalRate() > 0 {
		u := in.runRNG.Float64()
		base := in.plan.DeathRate + in.plan.HangRate + in.plan.TransientRate + in.plan.SlowRate
		switch {
		case u < in.plan.DeathRate:
			kind = KindDead
		case u < in.plan.DeathRate+in.plan.HangRate:
			kind = KindHang
		case u < in.plan.DeathRate+in.plan.HangRate+in.plan.TransientRate:
			kind = KindTransient
		case u < base:
			kind = KindSlow
			slowFactor *= in.plan.slowFactor()
		case u < base+in.plan.FlipUBRate:
			kind = KindFlipUB
		case u < base+in.plan.FlipUBRate+in.plan.FlipWeightsRate:
			kind = KindFlipWeights
		case u < base+in.plan.FlipUBRate+in.plan.FlipWeightsRate+in.plan.FlipAccRate:
			kind = KindFlipAcc
		case u < in.plan.totalRate():
			kind = KindFlipPE
		}
	}
	if kind == KindDead {
		in.dead = true
	}
	if kind == KindDead || kind == KindHang || kind == KindTransient {
		// The run will not execute: pending flips stay queued for the next
		// executing run.
		in.record(kind, 0)
		return kind, slowFactor, nil
	}
	// This run executes: hand it the deterministic flips first.
	for _, f := range in.pending {
		flips = in.appendFlip(flips, f)
	}
	in.pending = in.pending[:0]
	if tgt, ok := FlipTargetFor(kind); ok {
		// Rate-drawn flip: address and bit come from the same seeded stream.
		f := tpu.Flip{Target: tgt, Addr: uint64(in.runRNG.Int63()), Bit: uint8(in.runRNG.Intn(32))}
		in.record(kind, f.Addr)
		flips = append(flips, f)
	} else if kind != KindNone {
		in.record(kind, 0)
	}
	return kind, slowFactor, flips
}

// appendFlip converts a targeted flip, records its event, and appends it.
func (in *Injector) appendFlip(flips []tpu.Flip, f TargetedFlip) []tpu.Flip {
	tgt, ok := FlipTargetFor(f.Kind)
	if !ok {
		return flips
	}
	in.record(f.Kind, f.Addr)
	return append(flips, tpu.Flip{Target: tgt, Addr: f.Addr, Bit: f.Bit})
}

// CompileErr fails the driver's first Plan.FailCompiles slow-path compiles
// with ErrCompile; later compiles succeed. The runtime driver consults it
// at the top of every compile.
func (in *Injector) CompileErr() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.compiles++
	if in.compiles <= in.plan.FailCompiles {
		return fmt.Errorf("device %d compile %d: %w", in.device, in.compiles, ErrCompile)
	}
	return nil
}

// ArmedHook returns the tpu.RunHook realizing the injector's faults. Even
// a plan that currently injects nothing keeps the injector attached, so a
// chaos script can Kill or throttle the device mid-load. The runtime
// server installs armed hooks whenever it is built with a plan.
func (in *Injector) ArmedHook() tpu.RunHook {
	return func(ctx context.Context, inv tpu.Invocation) (tpu.Counters, error) {
		kind, factor, flips := in.next()
		switch kind {
		case KindDead:
			return tpu.Counters{}, fmt.Errorf("device %d: %w", in.device, ErrDeviceDead)
		case KindTransient:
			return tpu.Counters{}, fmt.Errorf("device %d: %w", in.device, ErrTransient)
		case KindHang:
			if !sleepCtx(ctx, time.Duration(in.plan.hangSeconds()*float64(time.Second))) {
				return tpu.Counters{}, ctx.Err()
			}
			return tpu.Counters{}, fmt.Errorf("device %d: %w", in.device, ErrHang)
		}
		if inv.Inject != nil {
			for _, f := range flips {
				inv.Inject(f)
			}
		}
		start := time.Now()
		c, err := inv.Run()
		if err != nil {
			return c, err
		}
		if factor > 1 {
			// A throttled device does the same work in more effective
			// cycles; stretch wall time to match so wall-clock callers see
			// the spike too.
			c.Cycles = stretch(c.Cycles, factor)
			if !sleepCtx(ctx, time.Duration(stretch(int64(time.Since(start)), factor-1))) {
				return c, ctx.Err()
			}
		}
		return c, nil
	}
}

// stretch returns v*f for f >= 0, rounded toward zero and saturating at
// math.MaxInt64: a static slowdown multiplies the plan's factor, and their
// product may take a stretched count past int64's range, where the
// conversion would wrap it negative.
func stretch(v int64, f float64) int64 {
	if x := float64(v) * f; x < math.MaxInt64 {
		return int64(x)
	}
	return math.MaxInt64
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Summary renders fleet-wide injected-fault counts for a set of
// injectors, sorted by device.
func Summary(injs []*Injector) string {
	var b strings.Builder
	for _, in := range injs {
		counts := in.Counts()
		if len(counts) == 0 {
			continue
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "device %d:", in.Device())
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, counts[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
