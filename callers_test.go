package tpusim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// callerAllowlist names the exported API no non-test file has to name, one
// reason per row. A key is "pkg.Name" for a function or type, "pkg.Type.Name"
// for a method (pkg is the directory under internal/), or "*.Name" for every
// method of that name; TestEveryExportedNameHasACaller fails on a row that
// matches nothing unnamed, so the list cannot outlive what it excuses.
var callerAllowlist = map[string]string{
	// Interface methods, called by the code that holds the interface.
	"*.ServeHTTP": "http.Handler: net/http calls it",
	"*.Fire":      "des.Handler: the event calendar calls it",
	"*.ArrivedAt": "latency.Arrival: the batching lane reads a request's arrival time through it",

	// Test-support API.
	"obs.CheckExposition":      "the strict exposition-format check every package's Prometheus test runs on its output",
	"systolic/kerneltest.Each": "runs a test of another package once under each matrix kernel rung the host has",

	// Cross-package test helpers, which no _test.go of their own package can
	// hold for another package's tests.
	"systolic.Tile.Bytes":         "tpu's TestTileLoadAliasesWeightDRAM (make bench-gate) checks by address that a loaded tile views the weight DRAM",
	"tpu.Device.WeightTileCopies": "runtime's compile_test.go (make bench-gate) counts the weight tiles a flip copied",
	"des.Loop.Pending":            "cluster's chaos tests check that a rejected plan leaves the calendar as it was",
	"fault.Injector.Revive":       "runtime's quarantine tests revive a killed device to watch a probe re-admit it",
	"workload.NewMultiPeriod":     "cluster's golden and chaos tests drive their fleets with it, and the golden bytes depend on its rates",

	// Oracles: the instruction wire form is what the decoder fuzz targets,
	// the encode round trips and the compiler's instruction-budget golden
	// read; nothing outside the tests ships programs as bytes.
	"isa.Program.Encode": "writes the wire form the decode fuzz targets, round trips and instruction-budget golden read",
	"isa.DecodeProgram":  "parses the wire form for FuzzDecode, FuzzProgramValidate and the encode round trips",
}

// TestEveryExportedNameHasACaller holds DESIGN.md's rule "tests are not
// callers" for functions: every exported function, method and type of an
// internal/ package is named by a non-test .go file of the module, bench/
// included, or has a row in callerAllowlist.
func TestEveryExportedNameHasACaller(t *testing.T) {
	unnamed, err := unnamedAPI(os.DirFS("."), "tpusim")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(unnamed, callerAllowlist) {
		t.Error(p)
	}
}

// checkAllowlist returns one problem per unnamed key no row excuses and per
// row that excuses no unnamed key: the row names something that no longer
// exists or that has a caller now.
func checkAllowlist(unnamed []string, allow map[string]string) []string {
	var problems []string
	used := map[string]bool{}
	for _, key := range unnamed {
		wild := "*." + key[strings.LastIndexByte(key, '.')+1:]
		switch {
		case allow[key] != "":
			used[key] = true
		case strings.Count(key, ".") == 2 && allow[wild] != "":
			used[wild] = true
		default:
			problems = append(problems, key+" has no non-test caller: delete it, unexport it, move it into a _test.go or allowlist it with a reason")
		}
	}
	for _, row := range slices.Sorted(maps.Keys(allow)) {
		if !used[row] {
			problems = append(problems, "allowlist row "+row+" excuses nothing: it has a caller now or no longer exists")
		}
	}
	return problems
}

// A methodUse is a selector .Name in a package, outside the declaration of
// the method it appears in (in, "" for none).
type methodUse struct {
	dir, name, in string
}

// A methodDecl is an internal/ method's key and its package directory.
type methodDecl struct {
	key, dir string
}

// unnamedAPI parses every non-test .go file of fsys, the root of module, and
// returns, sorted, the keys of the exported functions, methods, types, vars
// and consts of internal/ packages that no non-test file names outside their
// own declaration (for a type: outside its declaration and its own methods).
// A package-level name counts where pkg.Name appears outside its package and
// where Name appears inside it. Without type information a method counts
// wherever .Name appears in its own package or in one that imports it,
// directly or not, unless it selects from an imported package's name: any
// static call needs the receiver's type in scope, so only a call through an
// interface declared elsewhere goes unseen.
func unnamedAPI(fsys fs.FS, module string) ([]string, error) {
	pkgs, err := parseModule(fsys)
	if err != nil {
		return nil, err
	}

	declared := map[string]bool{}           // key -> exported declaration
	methods := map[string][]methodDecl{}    // name -> the methods so named
	imports := map[string]map[string]bool{} // directory -> module directories it imports
	named := map[string]bool{}
	uses := map[methodUse]bool{}
	for pdir, files := range pkgs {
		short, internal := strings.CutPrefix(pdir, "internal/")
		imports[pdir] = map[string]bool{}
		for _, f := range files {
			importDirs := map[string]string{} // local name -> module directory, "" outside the module
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(ipath)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				dir, ok := strings.CutPrefix(ipath, module+"/")
				importDirs[name] = dir
				if ok {
					imports[pdir][dir] = true
				}
			}
			for _, d := range f.Decls {
				// References inside d do not name the keys it declares: in.
				var in []string
				method := "" // the key of the method d declares, if any
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := short + "." + d.Name.Name
					if d.Recv != nil {
						typ := receiverType(d.Recv.List[0].Type)
						in = append(in, short+"."+typ)
						key = short + "." + typ + "." + d.Name.Name
						method = key
						if internal {
							methods[d.Name.Name] = append(methods[d.Name.Name], methodDecl{key, pdir})
						}
					}
					in = append(in, key)
					if internal && d.Name.IsExported() {
						declared[key] = true
					}
				case *ast.GenDecl:
					var names []*ast.Ident
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
					for _, name := range names {
						in = append(in, short+"."+name.Name)
						if internal && name.IsExported() {
							declared[short+"."+name.Name] = true
						}
					}
				}
				walkNames(d, func(pkgName, name string) {
					if pkgName == "" && !slices.Contains(in, short+"."+name) {
						named[short+"."+name] = true
					} else if dir, ok := strings.CutPrefix(importDirs[pkgName], "internal/"); ok {
						named[dir+"."+name] = true
					}
				}, func(x, name string) {
					if _, imported := importDirs[x]; !imported {
						uses[methodUse{pdir, name, method}] = true
					}
				})
			}
		}
	}

	// deps[dir] holds every module directory dir imports, directly or not.
	deps := map[string]map[string]bool{}
	var closure func(dir string) map[string]bool
	closure = func(dir string) map[string]bool {
		if d, ok := deps[dir]; ok {
			return d
		}
		d := map[string]bool{}
		deps[dir] = d
		for imp := range imports[dir] {
			d[imp] = true
			for dd := range closure(imp) {
				d[dd] = true
			}
		}
		return d
	}
	for u := range uses {
		for _, m := range methods[u.name] {
			if m.key != u.in && (u.dir == m.dir || closure(u.dir)[m.dir]) {
				named[m.key] = true
			}
		}
	}

	var unnamed []string
	for key := range declared {
		if !named[key] {
			unnamed = append(unnamed, key)
		}
	}
	slices.Sort(unnamed)
	return unnamed, nil
}

// parseModule parses the non-test .go files of fsys by directory, skipping
// testdata and directories whose names start with "." or "_".
func parseModule(fsys fs.FS) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); name != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(name)
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	return pkgs, err
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// walkNames reports every name node n refers to: pkg.Name selectors on an
// identifier as ref(pkg, Name), bare identifiers as ref("", Name) and every
// selector as method(x, Name), x the identifier it selects from or "".
// Declared names — of the function, its receiver and parameters, types,
// struct fields and composite-literal keys — are not references.
func walkNames(n ast.Node, ref func(pkg, name string), method func(x, name string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				ref(id.Name, x.Sel.Name)
				ref("", id.Name)
				method(id.Name, x.Sel.Name)
			} else {
				walkNames(x.X, ref, method)
				method("", x.Sel.Name)
			}
			return false
		case *ast.Ident:
			ref("", x.Name)
		case *ast.FuncDecl:
			if x.Recv != nil {
				walkFields(x.Recv, ref, method)
			}
			walkNames(x.Type, ref, method)
			if x.Body != nil {
				walkNames(x.Body, ref, method)
			}
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				walkFields(x.TypeParams, ref, method)
			}
			walkNames(x.Type, ref, method)
			return false
		case *ast.FieldList:
			walkFields(x, ref, method)
			return false
		case *ast.KeyValueExpr:
			if _, ok := x.Key.(*ast.Ident); !ok {
				walkNames(x.Key, ref, method)
			}
			walkNames(x.Value, ref, method)
			return false
		}
		return true
	})
}

func walkFields(fl *ast.FieldList, ref func(pkg, name string), method func(x, name string)) {
	for _, f := range fl.List {
		walkNames(f.Type, ref, method)
	}
}

// TestCallerScanFixture runs the scan on a small module: a function, const
// or var only a _test.go names is flagged, a caller in bench/ counts, a
// method counts in a package that imports its own only indirectly but not
// where a package-qualified name spells it, an allowlisted name passes, and
// a row that excuses nothing — its function gone, or called now — is
// flagged.
func TestCallerScanFixture(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	fsys := fstest.MapFS{
		"internal/a/a.go": src(`package a

type T struct{}
type Widget struct{}

const Size, Limit = 4, 8

var Registry = map[string]int{}

func New() *T { return &T{} }
func (t *T) Self() *T { return t.Self() }
func (t *T) Chained() {}
func (t *T) Widget() {}
func OnlyTested() {}
func Benched() {}
func Allowed() {}
func Used() {}
`),
		"internal/a/a_test.go": src(`package a

func use() { OnlyTested(); Allowed(); New().Self(); _ = Limit + Registry["x"] }
`),
		"internal/b/b.go": src(`package b

import "m/internal/a"

func Make() *a.T { _ = a.Widget{}; return a.New() }
`),
		"bench/main.go": src(`package main

import "m/internal/a"

func main() { a.Benched() }
`),
		"cmd/c/main.go": src(`package main

import alias "m/internal/a"

func main() { alias.Used(); _ = alias.Size }
`),
		"cmd/d/main.go": src(`package main

import "m/internal/b"

func main() { b.Make().Chained() }
`),
	}
	unnamed, err := unnamedAPI(fsys, "m")
	if err != nil {
		t.Fatal(err)
	}
	// Self calls only itself; cmd/d reaches Chained through b, which
	// imports a; b's a.Widget names the type, not the method; the
	// declaration of Size and Limit names neither.
	if want := []string{"a.Allowed", "a.Limit", "a.OnlyTested", "a.Registry", "a.T.Self", "a.T.Widget"}; !slices.Equal(unnamed, want) {
		t.Fatalf("unnamed %v, want %v", unnamed, want)
	}

	got := checkAllowlist(unnamed, map[string]string{
		"a.Allowed": "test support",
		"*.Self":    "an interface method",
		"a.Used":    "called by cmd/c now",
		"a.Gone":    "deleted",
	})
	want := []string{
		"a.Limit has no non-test caller", "a.OnlyTested has no non-test caller",
		"a.Registry has no non-test caller", "a.T.Widget has no non-test caller",
		"allowlist row a.Gone excuses nothing", "allowlist row a.Used excuses nothing",
	}
	if len(got) != len(want) {
		t.Fatalf("problems %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("problem %d = %q, want it to start %q", i, got[i], want[i])
		}
	}
}
