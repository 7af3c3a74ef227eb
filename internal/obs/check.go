package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// CheckExposition reports the first way text departs from the exposition
// format as Render writes it, or nil. It is strict: every family name is
// declared once in the scrape, by one HELP line then one TYPE line ahead of
// its samples; every sample is `name{label="value",...} number` with only
// the escapes the format defines, and belongs to the open family (a
// summary's _sum/_count, a histogram's _bucket/_sum/_count); a histogram
// series' buckets are cumulative over rising bounds, end in +Inf, and
// agree with its _count. The registries' tests run it over their own
// output and over the concatenated scrape one Ops endpoint serves.
func CheckExposition(text string) error {
	// One sample line: the name, the label list without its braces (a quoted
	// value holds any byte but a raw quote, backslash or line feed, which
	// appear as \", \\ and \n), and the value. Compiled per call: the
	// checker runs in tests, and a package-level regexp would sit on the
	// heap of every program that links obs.
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:,?[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\[\\"n])*")+)\})? (\S+)$`)
	var (
		seen     = map[string]bool{}
		fam, typ string  // the open family; typ is "" until its TYPE line
		series   string  // the histogram series being read: its labels without le
		open     bool    // series still lacks its _count
		le, cum  float64 // series' last bucket bound and count
	)
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("exposition line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			switch {
			case seen[name]:
				return fail("family %s declared twice", name)
			case fam != "" && typ == "":
				return fail("family %s has no TYPE", fam)
			case open:
				return fail("histogram series {%s} lacks its +Inf, _sum, _count", series)
			}
			seen[name], fam, typ = true, name, ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(rest, " ")
			if name != fam || typ != "" {
				return fail("TYPE is not the line after its family's HELP")
			}
			if t != "counter" && t != "gauge" && t != "summary" && t != "histogram" {
				return fail("unknown type %q", t)
			}
			typ = t
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fail(`want name{label="value",...} number, escapes \\ \" \n only`)
		}
		name, labels := m[1], m[2]
		value, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fail("%v", err)
		}
		suffix, ok := strings.CutPrefix(name, fam)
		if typ == "" || !ok {
			return fail("sample is outside a family declared by HELP and TYPE")
		}
		switch typ + suffix {
		case "counter", "gauge", "summary_sum", "summary_count":
		case "histogram_bucket":
			at := strings.LastIndex(labels, `le="`)
			if at < 0 || at > 0 && labels[at-1] != ',' {
				return fail("bucket has no le label")
			}
			bound, err := strconv.ParseFloat(strings.TrimSuffix(labels[at+4:], `"`), 64)
			if err != nil {
				return fail("bucket's last label is not a numeric le: %v", err)
			}
			if key := strings.TrimSuffix(labels[:at], ","); !open {
				series, open, le, cum = key, true, math.Inf(-1), 0
			} else if key != series {
				return fail("histogram series {%s} lacks its +Inf, _sum, _count", series)
			}
			if bound <= le || value < cum {
				return fail("bucket is not cumulative over a rising bound (previous le %g count %g)", le, cum)
			}
			le, cum = bound, value
		case "histogram_sum", "histogram_count":
			if !open || labels != series || !math.IsInf(le, 1) {
				return fail("%s does not follow its series' +Inf bucket", suffix)
			}
			if suffix == "_count" {
				if value != cum {
					return fail("_count disagrees with the +Inf bucket's %g", cum)
				}
				open = false
			}
		default:
			return fail("%s sample %s does not belong to family %s", typ, name, fam)
		}
	}
	if open {
		return fmt.Errorf("exposition ends inside histogram series {%s}", series)
	}
	return nil
}
