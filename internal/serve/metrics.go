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

// ModelMetrics is one model's counters and distributions, folded from the
// lane's events by record, their one mutator.
type ModelMetrics struct {
	mu sync.Mutex

	name string
	// n counts requests by the kind of event that admitted, refused or
	// settled them. Every request the server did not refuse as closed is
	// admitted or shed at admission, and every admitted one ends expired,
	// failed or served; after a drain none is left in flight.
	n             [numKinds]uint64
	queueDepth    int
	maxQueueDepth int
	breakerState  BreakerState
	batchDist     map[int]uint64
	hist          obs.Histogram
}

// record folds one lane event: one lock per admission, per take, per
// settled batch and per breaker transition.
func (mm *ModelMetrics) record(e *event) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	switch e.kind {
	case evAdmitted, evTaken:
		mm.queueDepth = e.depth
		mm.maxQueueDepth = max(mm.maxQueueDepth, e.depth)
	case evServed:
		mm.batchDist[len(e.calls)]++
		for _, c := range e.calls {
			mm.hist.Observe(e.at - c.arrived)
		}
	case evBreaker:
		mm.breakerState = e.to
	}
	// A batch event settles its calls; any other event is about one request
	// (an admission) or none (n counts takes and transitions unread).
	mm.n[e.kind] += uint64(max(len(e.calls), 1))
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
	breakerState BreakerState
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
	n := &mm.n
	s := ModelSnapshot{
		Model:        mm.name,
		Submitted:    n[evAdmitted] + n[evShedQueue] + n[evShedBrownout] + n[evShedBreaker],
		Completed:    n[evServed],
		ShedQueue:    n[evShedQueue],
		ShedBrownout: n[evShedBrownout],
		ShedBreaker:  n[evShedBreaker],
		BreakerState: mm.breakerState.String(),
		Expired:      n[evExpired],
		Errored:      n[evFailed],
		BatchDist:    make(map[int]uint64, len(mm.batchDist)),
		QueueDepth:   mm.queueDepth, MaxQueueDepth: mm.maxQueueDepth,
		P50Ms: mm.hist.Quantile(0.50) * 1e3,
		P99Ms: mm.hist.Quantile(0.99) * 1e3,
		MaxMs: mm.hist.Max() * 1e3,

		breakerState: mm.breakerState,
		hist:         mm.hist,
	}
	if settled := n[evExpired] + n[evFailed] + n[evServed]; n[evAdmitted] > settled {
		s.InFlight = n[evAdmitted] - settled
	}
	for size, count := range mm.batchDist {
		s.BatchDist[size] = count
		s.Batches += count
		s.batched += uint64(size) * count
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.batched) / float64(s.Batches)
	}
	if s.Completed > 0 {
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
	fmt.Fprintf(&b, "%-8s %9s %9s %7s %7s %7s %7s %6s %7s %9s %5s %8s %8s %8s\n",
		"model", "submitted", "completed", "shedQ", "shedBO", "shedBrk", "expired", "errs", "batches", "meanbatch", "queue", "p50ms", "p99ms", "maxms")
	for _, s := range snap.Models {
		fmt.Fprintf(&b, "%-8s %9d %9d %7d %7d %7d %7d %6d %7d %9.1f %5d %8.2f %8.2f %8.2f\n",
			s.Model, s.Submitted, s.Completed, s.ShedQueue, s.ShedBrownout, s.ShedBreaker, s.Expired, s.Errored,
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
