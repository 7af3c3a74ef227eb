package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tpusim/internal/obs"
)

// Metrics is the serving-layer registry: one ModelMetrics per model, safe
// for concurrent use by the server's lanes and any scraper.
type Metrics struct {
	mu     sync.Mutex
	start  time.Time
	models map[string]*ModelMetrics
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), models: map[string]*ModelMetrics{}}
}

// Model returns the named model's metrics, creating them on first use.
func (m *Metrics) Model(name string) *ModelMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm, ok := m.models[name]
	if !ok {
		mm = &ModelMetrics{name: name, batchDist: map[int]uint64{}}
		m.models[name] = mm
	}
	return mm
}

// ModelMetrics is one model's counters and distributions.
type ModelMetrics struct {
	mu sync.Mutex

	name string
	// Counter semantics: submitted = shedQueue + shedBrownout + shedBreaker
	// + expired + errored + completed + (still in flight). After a drain
	// the in-flight term is zero and the equation balances exactly.
	submitted, completed      uint64
	shedQueue, expired        uint64
	shedBrownout, shedBreaker uint64
	errored                   uint64
	batches                   uint64
	queueDepth                int
	maxQueueDepth             int
	breakerState              int
	batchDist                 map[int]uint64
	hist                      obs.Histogram
}

// Submitted records an admission attempt.
func (mm *ModelMetrics) Submitted() {
	mm.mu.Lock()
	mm.submitted++
	mm.mu.Unlock()
}

// ShedQueue records a request shed at admission (queue full).
func (mm *ModelMetrics) ShedQueue() {
	mm.mu.Lock()
	mm.shedQueue++
	mm.mu.Unlock()
}

// ShedBreaker records a request shed by the breaker: reason "brownout"
// (tightened queue) or "breaker_open" (lane taking trials only).
func (mm *ModelMetrics) ShedBreaker(reason string) {
	mm.mu.Lock()
	if reason == "breaker_open" {
		mm.shedBreaker++
	} else {
		mm.shedBrownout++
	}
	mm.mu.Unlock()
}

// SetBreakerState records the lane breaker's state gauge (0 closed,
// 1 brownout, 2 open).
func (mm *ModelMetrics) SetBreakerState(state int) {
	mm.mu.Lock()
	mm.breakerState = state
	mm.mu.Unlock()
}

// Expired records a request shed at dispatch (deadline unmeetable).
func (mm *ModelMetrics) Expired() {
	mm.mu.Lock()
	mm.expired++
	mm.mu.Unlock()
}

// Errored records a request failed by the backend.
func (mm *ModelMetrics) Errored() {
	mm.mu.Lock()
	mm.errored++
	mm.mu.Unlock()
}

// Completed records one served request's latency.
func (mm *ModelMetrics) Completed(latencySeconds float64) {
	mm.mu.Lock()
	mm.completed++
	mm.hist.Observe(latencySeconds)
	mm.mu.Unlock()
}

// Batch records one dispatched batch's size.
func (mm *ModelMetrics) Batch(size int) {
	mm.mu.Lock()
	mm.batches++
	mm.batchDist[size]++
	mm.mu.Unlock()
}

// SetQueueDepth records the current queue depth gauge.
func (mm *ModelMetrics) SetQueueDepth(depth int) {
	mm.mu.Lock()
	mm.queueDepth = depth
	if depth > mm.maxQueueDepth {
		mm.maxQueueDepth = depth
	}
	mm.mu.Unlock()
}

// ModelSnapshot is one model's exported state.
type ModelSnapshot struct {
	Model         string         `json:"model"`
	Submitted     uint64         `json:"submitted"`
	Completed     uint64         `json:"completed"`
	ShedQueue     uint64         `json:"shed_queue"`
	ShedBrownout  uint64         `json:"shed_brownout"`
	ShedBreaker   uint64         `json:"shed_breaker"`
	BreakerState  string         `json:"breaker_state"`
	Expired       uint64         `json:"expired"`
	Errored       uint64         `json:"errored"`
	InFlight      uint64         `json:"in_flight"`
	Batches       uint64         `json:"batches"`
	MeanBatch     float64        `json:"mean_batch"`
	BatchDist     map[int]uint64 `json:"batch_dist"`
	QueueDepth    int            `json:"queue_depth"`
	MaxQueueDepth int            `json:"max_queue_depth"`
	P50Ms         float64        `json:"p50_ms"`
	P99Ms         float64        `json:"p99_ms"`
	MeanMs        float64        `json:"mean_ms"`
	MaxMs         float64        `json:"max_ms"`

	// What the exposition renders and the fields above only summarize: the
	// breaker gauge's number, the batch-size sum and the latency histogram.
	breakerState int
	batched      uint64
	hist         obs.Histogram
}

// Snapshot is the full registry state at one instant.
type Snapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Models        []ModelSnapshot `json:"models"`
}

// snapshot copies one model's state under its lock.
func (mm *ModelMetrics) snapshot() ModelSnapshot {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	s := ModelSnapshot{
		Model:     mm.name,
		Submitted: mm.submitted, Completed: mm.completed,
		ShedQueue: mm.shedQueue, Expired: mm.expired, Errored: mm.errored,
		ShedBrownout: mm.shedBrownout, ShedBreaker: mm.shedBreaker,
		BreakerState: BreakerState(mm.breakerState).String(),
		Batches:      mm.batches,
		BatchDist:    make(map[int]uint64, len(mm.batchDist)),
		QueueDepth:   mm.queueDepth, MaxQueueDepth: mm.maxQueueDepth,
		P50Ms: mm.hist.Quantile(0.50) * 1e3,
		P99Ms: mm.hist.Quantile(0.99) * 1e3,
		MaxMs: mm.hist.Max() * 1e3,

		breakerState: mm.breakerState,
		hist:         mm.hist,
	}
	settled := mm.shedQueue + mm.shedBrownout + mm.shedBreaker + mm.expired + mm.errored + mm.completed
	if mm.submitted > settled {
		s.InFlight = mm.submitted - settled
	}
	for size, count := range mm.batchDist {
		s.BatchDist[size] = count
		s.batched += uint64(size) * count
	}
	if mm.batches > 0 {
		s.MeanBatch = float64(s.batched) / float64(mm.batches)
	}
	if mm.completed > 0 {
		s.MeanMs = mm.hist.Mean() * 1e3
	}
	return s
}

// Snapshot captures every model's state, sorted by model name for
// deterministic output.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	models := make([]*ModelMetrics, 0, len(m.models))
	for _, mm := range m.models {
		models = append(models, mm)
	}
	uptime := time.Since(m.start).Seconds()
	m.mu.Unlock()

	snap := Snapshot{UptimeSeconds: uptime}
	for _, mm := range models {
		snap.Models = append(snap.Models, mm.snapshot())
	}
	sort.Slice(snap.Models, func(i, j int) bool { return snap.Models[i].Model < snap.Models[j].Model })
	return snap
}

// JSON renders the registry as indented JSON.
func (m *Metrics) JSON() ([]byte, error) {
	return json.MarshalIndent(m.Snapshot(), "", "  ")
}

// Text renders the registry as an aligned table plus per-model batch-size
// distributions.
func (m *Metrics) Text() string {
	snap := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "serve metrics (uptime %.1fs)\n", snap.UptimeSeconds)
	fmt.Fprintf(&b, "%-8s %9s %9s %7s %7s %6s %7s %9s %5s %8s %8s %8s\n",
		"model", "submitted", "completed", "shedQ", "expired", "errs", "batches", "meanbatch", "queue", "p50ms", "p99ms", "maxms")
	for _, s := range snap.Models {
		fmt.Fprintf(&b, "%-8s %9d %9d %7d %7d %6d %7d %9.1f %5d %8.2f %8.2f %8.2f\n",
			s.Model, s.Submitted, s.Completed, s.ShedQueue, s.Expired, s.Errored,
			s.Batches, s.MeanBatch, s.QueueDepth, s.P50Ms, s.P99Ms, s.MaxMs)
	}
	for _, s := range snap.Models {
		if len(s.BatchDist) == 0 {
			continue
		}
		sizes := make([]int, 0, len(s.BatchDist))
		for size := range s.BatchDist {
			sizes = append(sizes, size)
		}
		sort.Ints(sizes)
		fmt.Fprintf(&b, "%s batch sizes:", s.Model)
		for _, size := range sizes {
			fmt.Fprintf(&b, " %dx%d", size, s.BatchDist[size])
		}
		b.WriteString("\n")
	}
	return b.String()
}
