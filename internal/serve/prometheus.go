package serve

import (
	"io"

	"tpusim/internal/obs"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format: counters for every admission outcome, gauges for queue depth and
// in-flight requests, a summary for batch sizes, and the full
// request-latency histogram. Models render in sorted name order so the
// exposition is deterministic for a given registry state (modulo the
// uptime gauge). A failed write is the scraper's to notice: an exposition
// has no error channel.
func (m *Metrics) WritePrometheus(w io.Writer) { _, _ = io.WriteString(w, m.Prometheus()) }

// Prometheus renders the exposition as a string.
func (m *Metrics) Prometheus() string { return string(obs.Render(m.Snapshot(), families)) }

// modelRows is the row set of every per-model family.
func modelRows(s Snapshot) []ModelSnapshot { return s.Models }

var byModel = []string{"model"}

// families is the serving registry's exposition, one row per family.
var families = []obs.Family[Snapshot]{
	{Name: "tpuserve_up", Type: "gauge", Help: "Whether the serving registry is live (always 1 when scraped).", Collect: func(_ Snapshot, e *obs.Emitter) { e.Uint(1) }},
	{Name: "tpuserve_uptime_seconds", Type: "gauge", Help: "Seconds since the metrics registry was created.", Collect: func(s Snapshot, e *obs.Emitter) { e.Float(s.UptimeSeconds) }},
	{Name: "tpuserve_requests_submitted_total", Type: "counter", Help: "Requests offered to admission control.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Uint(m.Submitted, m.Model) })},
	{Name: "tpuserve_requests_completed_total", Type: "counter", Help: "Requests served within the SLA.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Uint(m.Completed, m.Model) })},
	{Name: "tpuserve_requests_shed_total", Type: "counter", Help: "Requests shed, by reason: queue_full at admission, deadline at dispatch, brownout/breaker_open from the circuit breaker.", Labels: []string{"model", "reason"}, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) {
		e.Uint(m.ShedQueue, m.Model, "queue_full")
		e.Uint(m.Expired, m.Model, "deadline")
		e.Uint(m.ShedBrownout, m.Model, "brownout")
		e.Uint(m.ShedBreaker, m.Model, "breaker_open")
	})},
	{Name: "tpuserve_breaker_state", Type: "gauge", Help: "Per-model circuit breaker state: 0 closed, 1 brownout, 2 open.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Int(int64(m.breakerState), m.Model) })},
	{Name: "tpuserve_requests_errored_total", Type: "counter", Help: "Requests failed by the backend.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Uint(m.Errored, m.Model) })},
	{Name: "tpuserve_requests_in_flight", Type: "gauge", Help: "Requests admitted but not yet settled.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Uint(m.InFlight, m.Model) })},
	{Name: "tpuserve_batches_total", Type: "counter", Help: "Batches dispatched to the backend.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Uint(m.Batches, m.Model) })},
	{Name: "tpuserve_batch_size", Type: "summary", Help: "Requests per dispatched batch.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Summary(m.batched, m.Batches, m.Model) })},
	{Name: "tpuserve_queue_depth", Type: "gauge", Help: "Current per-model queue depth.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Int(int64(m.QueueDepth), m.Model) })},
	{Name: "tpuserve_queue_depth_max", Type: "gauge", Help: "High-water per-model queue depth.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Int(int64(m.MaxQueueDepth), m.Model) })},
	{Name: "tpuserve_request_latency_seconds", Type: "histogram", Help: "Served request latency (enqueue to completion), geometric buckets.", Labels: byModel, Collect: obs.Each(modelRows, func(e *obs.Emitter, m ModelSnapshot) { e.Histogram(&m.hist, m.Model) })},
}
