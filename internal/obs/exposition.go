package obs

import (
	"fmt"
	"strconv"
)

// Family is one metric family: its name, type and help text, its label
// names, and how to read its samples off the owner's snapshot S. A
// registry declares its families once, as a table, and hands the table to
// Render — the only code that knows the Prometheus text exposition format
// (version 0.0.4).
type Family[S any] struct {
	Name string
	// Type is "counter", "gauge", "summary" or "histogram".
	Type string
	Help string
	// Labels names the labels every sample of the family carries, in
	// rendering order.
	Labels []string
	// Collect emits the family's samples from a snapshot, each with one
	// label value per label name.
	Collect func(s S, e *Emitter)
}

// Each builds a Collect that samples every row rows reads off the snapshot,
// in order — the shape of most families: one series per model, device or
// app.
func Each[S, R any](rows func(S) []R, sample func(e *Emitter, r R)) func(S, *Emitter) {
	return func(s S, e *Emitter) {
		for _, r := range rows(s) {
			sample(e, r)
		}
	}
}

// Emitter renders the samples of the family being collected.
type Emitter struct {
	buf    []byte
	name   string
	labels []string
}

// Render returns the exposition of the families over one snapshot, in
// table order.
func Render[S any](s S, fams []Family[S]) []byte {
	var e Emitter
	for i := range fams {
		f := &fams[i]
		e.name, e.labels = f.Name, f.Labels
		e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		f.Collect(s, &e)
	}
	return e.buf
}

// Int emits one signed integer sample.
func (e *Emitter) Int(v int64, labelValues ...string) {
	e.series("", labelValues, nil)
	e.buf = append(strconv.AppendInt(e.buf, v, 10), '\n')
}

// Uint emits one unsigned integer sample.
func (e *Emitter) Uint(v uint64, labelValues ...string) { e.uint("", labelValues, nil, v) }

// Float emits one floating-point sample in its shortest exact form.
func (e *Emitter) Float(v float64, labelValues ...string) { e.float("", labelValues, v) }

// Summary emits a quantile-free summary: the _sum and _count series.
func (e *Emitter) Summary(sum, count uint64, labelValues ...string) {
	e.uint("_sum", labelValues, nil, sum)
	e.uint("_count", labelValues, nil, count)
}

// Histogram emits h as cumulative _bucket series over the geometric bounds
// plus +Inf, each with a trailing le label, then _sum and _count.
func (e *Emitter) Histogram(h *Histogram, labelValues ...string) {
	var cum uint64
	var le [24]byte
	for i, c := range h.counts {
		cum += c
		_, hi := latBucketBounds(i)
		e.uint("_bucket", labelValues, strconv.AppendFloat(le[:0], hi, 'g', -1, 64), cum)
	}
	e.uint("_bucket", labelValues, append(le[:0], "+Inf"...), cum)
	e.float("_sum", labelValues, h.sum)
	e.uint("_count", labelValues, nil, h.n)
}

func (e *Emitter) uint(suffix string, labelValues []string, le []byte, v uint64) {
	e.series(suffix, labelValues, le)
	e.buf = append(strconv.AppendUint(e.buf, v, 10), '\n')
}

func (e *Emitter) float(suffix string, labelValues []string, v float64) {
	e.series(suffix, labelValues, nil)
	e.buf = append(strconv.AppendFloat(e.buf, v, 'g', -1, 64), '\n')
}

// series appends `name+suffix{label="value",...} `: the family's label
// names paired with values, then le (a histogram bucket's bound) when it
// is non-nil. Label values are escaped as the format defines — backslash,
// double quote and line feed — and every other byte passes through.
func (e *Emitter) series(suffix string, values []string, le []byte) {
	if len(values) != len(e.labels) {
		panic(fmt.Sprintf("obs: family %s has labels %q, sample has values %q", e.name, e.labels, values))
	}
	e.buf = append(append(e.buf, e.name...), suffix...)
	sep := byte('{')
	for i, v := range values {
		e.buf = append(append(append(e.buf, sep), e.labels[i]...), '=', '"')
		for j := 0; j < len(v); j++ {
			switch c := v[j]; c {
			case '\\', '"':
				e.buf = append(e.buf, '\\', c)
			case '\n':
				e.buf = append(e.buf, '\\', 'n')
			default:
				e.buf = append(e.buf, c)
			}
		}
		e.buf = append(e.buf, '"')
		sep = ','
	}
	if le != nil {
		e.buf = append(append(append(append(e.buf, sep), `le="`...), le...), '"')
		sep = ','
	}
	if sep == ',' {
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ' ')
}
