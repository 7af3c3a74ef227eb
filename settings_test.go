package tpusim

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tpusim/internal/cluster"
	"tpusim/internal/experiments"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/tpu"
)

// settingsTypes are the config types DESIGN.md's "Settings and their
// callers" table covers, by the name the table gives them.
var settingsTypes = map[string]reflect.Type{
	"cluster.Config":                 reflect.TypeFor[cluster.Config](),
	"experiments.ClusterConfig":      reflect.TypeFor[experiments.ClusterConfig](),
	"experiments.ClusterChaosConfig": reflect.TypeFor[experiments.ClusterChaosConfig](),
	"experiments.RolloutConfig":      reflect.TypeFor[experiments.RolloutConfig](),
	"experiments.ChaosConfig":        reflect.TypeFor[experiments.ChaosConfig](),
	"experiments.SDCConfig":          reflect.TypeFor[experiments.SDCConfig](),
	"serve.ModelConfig":              reflect.TypeFor[serve.ModelConfig](),
	"serve.Policy":                   reflect.TypeFor[serve.Policy](),
	"runtime.ServerOptions":          reflect.TypeFor[runtime.ServerOptions](),
	"runtime.Resilience":             reflect.TypeFor[runtime.Resilience](),
	"tpu.Config":                     reflect.TypeFor[tpu.Config](),
}

// TestSettingsTableCoversEveryField holds DESIGN.md's settings table to the
// code: every exported field of every listed type has exactly one row, every
// row names a field that exists, and a row says its fields have no caller
// only where callerAllowlist (callers_test.go) excuses each of them.
func TestSettingsTableCoversEveryField(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Settings and their callers\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Settings and their callers" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rows := map[string][]string{} // type -> fields its rows name
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "| `") || len(cells) != 3 {
			continue
		}
		typ := strings.Trim(cells[0], "`")
		if _, ok := settingsTypes[typ]; !ok {
			t.Errorf("row for %s, a type the test does not list", typ)
			continue
		}
		for _, f := range strings.Split(cells[1], ", ") {
			f = strings.Trim(f, "`")
			rows[typ] = append(rows[typ], f)
			if setBy := cells[2]; strings.Contains(setBy, "no caller") && callerAllowlist[typ+"."+f] == "" {
				t.Errorf("%s.%s: set by %q, but callerAllowlist does not excuse it: want a caller", typ, f, setBy)
			}
		}
	}

	for name, typ := range settingsTypes {
		var fields []string
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		slices.Sort(fields)
		listed := slices.Clone(rows[name])
		slices.Sort(listed)
		if !slices.Equal(fields, listed) {
			t.Errorf("%s: fields %v, the table's rows name %v", name, fields, listed)
		}
	}
}
