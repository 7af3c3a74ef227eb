package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

type expoRow struct {
	name string
	n    uint64
	h    Histogram
}

func expoRows(rows []expoRow) []expoRow { return rows }

var expoFamilies = []Family[[]expoRow]{
	{Name: "t_up", Type: "gauge", Help: "Unlabelled.", Collect: func(_ []expoRow, e *Emitter) { e.Int(-1) }},
	{Name: "t_total", Type: "counter", Help: "One label.", Labels: []string{"row"}, Collect: Each(expoRows, func(e *Emitter, r expoRow) { e.Uint(r.n, r.name) })},
	{Name: "t_ratio", Type: "gauge", Help: "Two labels.", Labels: []string{"row", "kind"}, Collect: Each(expoRows, func(e *Emitter, r expoRow) { e.Float(float64(r.n)/8, r.name, "eighths") })},
	{Name: "t_size", Type: "summary", Help: "Summary.", Labels: []string{"row"}, Collect: Each(expoRows, func(e *Emitter, r expoRow) { e.Summary(3*r.n, r.n, r.name) })},
	{Name: "t_seconds", Type: "histogram", Help: "Histogram.", Labels: []string{"row"}, Collect: Each(expoRows, func(e *Emitter, r expoRow) { e.Histogram(&r.h, r.name) })},
	{Name: "t_plain_seconds", Type: "histogram", Help: "Unlabelled histogram.", Collect: func(rows []expoRow, e *Emitter) { e.Histogram(&rows[0].h) }},
}

// TestRenderEscapesLabelValues pins the one place label values are
// escaped: backslash, double quote and line feed get the escapes the
// exposition format defines, and every other byte — a tab, a control
// character Go's %q would have spelled \t or \x01 — passes through, so a
// hostile model name cannot make the scrape unparsable.
func TestRenderEscapesLabelValues(t *testing.T) {
	rows := []expoRow{{name: "a\"b\\c\nd\te\x01", n: 2}, {name: "MLP0", n: 5}}
	rows[0].h.Observe(1e-3)
	out := string(Render(rows, expoFamilies))
	esc := `a\"b\\c\nd` + "\te\x01"
	for _, want := range []string{
		"# HELP t_up Unlabelled.\n# TYPE t_up gauge\nt_up -1\n",
		`t_total{row="` + esc + `"} 2` + "\n" + `t_total{row="MLP0"} 5` + "\n",
		`t_ratio{row="` + esc + `",kind="eighths"} 0.25` + "\n",
		`t_size_sum{row="MLP0"} 15` + "\n" + `t_size_count{row="MLP0"} 5` + "\n",
		`t_seconds_bucket{row="` + esc + `",le="1.25e-05"} 0` + "\n",
		`t_seconds_bucket{row="` + esc + `",le="+Inf"} 1` + "\n" + `t_seconds_sum{row="` + esc + `"} 0.001` + "\n" + `t_seconds_count{row="` + esc + `"} 1` + "\n",
		`t_plain_seconds_bucket{le="+Inf"} 1` + "\n" + "t_plain_seconds_sum 0.001\nt_plain_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if err := CheckExposition(out); err != nil {
		t.Errorf("checker rejects the writer's own output: %v", err)
	}
}

// TestRenderNumbersMatchFmt ties the writer's strconv formatting to the %d
// and %g the hand-written expositions used, over the awkward values.
func TestRenderNumbersMatchFmt(t *testing.T) {
	for _, v := range []float64{0, 1, 0.1, 1e-5, 1.25e-05, 123456789, 1e21, 1.0 / 3, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		fams := []Family[float64]{{Name: "x", Type: "gauge", Help: "h", Collect: func(v float64, e *Emitter) { e.Float(v) }}}
		if got, want := string(Render(v, fams)), fmt.Sprintf("# HELP x h\n# TYPE x gauge\nx %g\n", v); got != want {
			t.Errorf("Float(%v) rendered %q, want %q", v, got, want)
		}
	}
	fams := []Family[uint64]{{Name: "x", Type: "counter", Help: "h", Collect: func(v uint64, e *Emitter) { e.Uint(v) }}}
	if got := string(Render(uint64(math.MaxUint64), fams)); !strings.HasSuffix(got, "x 18446744073709551615\n") {
		t.Errorf("Uint(max) rendered %q", got)
	}
}

// TestRenderLabelArity pins the one mistake a family table invites: a
// sample whose label values do not match the family's label names.
func TestRenderLabelArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a sample with a missing label value did not panic")
		}
	}()
	Render(0, []Family[int]{{Name: "x", Type: "gauge", Help: "h", Labels: []string{"a", "b"}, Collect: func(_ int, e *Emitter) { e.Uint(1, "only-a") }}})
}

// TestCheckExpositionRejects feeds the checker one defect at a time.
func TestCheckExpositionRejects(t *testing.T) {
	const head = "# HELP a_total A.\n# TYPE a_total counter\n"
	const hist = "# HELP h H.\n# TYPE h histogram\n"
	for name, text := range map[string]string{
		"family declared twice":     head + "a_total 1\n" + head,
		"two families, one name":    head + "# HELP a_total B.\n# TYPE a_total gauge\n",
		"HELP without TYPE":         "# HELP a_total A.\n# HELP b B.\n# TYPE b gauge\n",
		"TYPE without HELP":         "# TYPE a_total counter\na_total 1\n",
		"second TYPE":               head + "# TYPE a_total gauge\n",
		"unknown type":              "# HELP a A.\n# TYPE a untyped\n",
		"sample before its header":  "a_total 1\n" + head,
		"sample between HELP, TYPE": "# HELP a_total A.\na_total 1\n# TYPE a_total counter\n",
		"sample of another family":  head + "b_total 1\n",
		"longer name, same prefix":  head + "a_total_more 1\n",
		"summary suffix on counter": head + "a_total_sum 1\n",
		"no value":                  head + "a_total\n",
		"value not a number":        head + "a_total one\n",
		"unquoted label value":      head + "a_total{x=1} 1\n",
		"undefined escape":          head + `a_total{x="a\tb"} 1` + "\n",
		"raw line feed in a value":  head + "a_total{x=\"a\nb\"} 1\n",
		"unterminated labels":       head + `a_total{x="a" 1` + "\n",
		"bucket without le":         hist + `h_bucket{x="a"} 1` + "\n",
		"le not last":               hist + `h_bucket{le="1",x="a"} 1` + "\n",
		"bounds not rising":         hist + `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n",
		"counts not cumulative":     hist + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="2"} 1` + "\n",
		"no +Inf before _sum":       hist + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"series switches early":     hist + `h_bucket{x="a",le="1"} 1` + "\n" + `h_bucket{x="b",le="1"} 1` + "\n",
		"_count disagrees":          hist + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
		"_sum of another series":    hist + `h_bucket{x="a",le="+Inf"} 2` + "\n" + `h_sum{x="b"} 1` + "\n",
		"ends inside a series":      hist + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\n",
		"next family inside series": hist + `h_bucket{le="+Inf"} 2` + "\n" + head,
		"bare histogram sample":     hist + "h 1\n",
	} {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
	ok := head + `a_total{x="a\\b\"c\nd",y=""} 1e3` + "\n" + hist +
		`h_bucket{x="a",le="1"} 0` + "\n" + `h_bucket{x="a",le="+Inf"} 2` + "\n" + `h_sum{x="a"} 0.5` + "\n" + `h_count{x="a"} 2` + "\n" +
		`h_bucket{x="b",le="+Inf"} 0` + "\n" + `h_sum{x="b"} 0` + "\n" + `h_count{x="b"} 0` + "\n"
	if err := CheckExposition(ok); err != nil {
		t.Errorf("well-formed exposition rejected: %v", err)
	}
}
