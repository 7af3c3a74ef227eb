package tpusim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// callerAllowlist names the exported API no non-test file has to use, one
// reason per row. A key is "pkg.Name" for a function or type, "pkg.Type.Name"
// for a method (pkg is the directory under internal/), or "*.Name" for every
// method of that name; TestEveryExportedNameHasACaller fails on a row that
// matches nothing unnamed, so the list cannot outlive what it excuses.
var callerAllowlist = map[string]string{
	// Interface methods, called by code outside the module that holds the
	// interface.
	"*.ServeHTTP": "http.Handler: net/http calls it",
	"*.String":    "fmt calls it through fmt.Stringer",

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
	"isa.Program.Count":           "compiler's tests count the halts, matrix multiplies and operand DMAs a compiled program holds",

	// Oracles: the instruction wire form is what the decoder fuzz targets,
	// the encode round trips and the compiler's instruction-budget golden
	// read; nothing outside the tests ships programs as bytes.
	"isa.Program.Encode": "writes the wire form the decode fuzz targets, round trips and instruction-budget golden read",
	"isa.DecodeProgram":  "parses the wire form for FuzzDecode, FuzzProgramValidate and the encode round trips",
}

// TestEveryExportedNameHasACaller holds DESIGN.md's rule "tests are not
// callers" for functions: every exported function, method and type of an
// internal/ package is used by a non-test .go file of the module, bench/
// included, or has a row in callerAllowlist. The standard library's types
// come from its export data; the test fails if that cannot be loaded.
func TestEveryExportedNameHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	unnamed, err := unnamedAPI(fset, pkgs, "tpusim", importer.Default())
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

// unnamedAPI type-checks pkgs, the non-test files of module by directory
// ("." for the module root), importing every other package through std, and
// returns, sorted, the keys of the exported functions, methods, types, vars
// and consts of internal/ packages that no file uses outside their own
// declaration (for a type: outside its declaration and its own methods).
// Each identifier is resolved to the object it names, so a method counts
// only where its own object is used — called, or taken as a method value or
// expression — or where its type, or a pointer to it, implements an
// interface whose method some file uses.
func unnamedAPI(fset *token.FileSet, pkgs map[string][]*ast.File, module string, std types.Importer) ([]string, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(ipath, module+"/")
		if !ok {
			return std.Import(ipath)
		}
		if p := checked[dir]; p != nil {
			return p, nil
		}
		if pkgs[dir] == nil {
			return nil, fmt.Errorf("%s: no non-test files", ipath)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(ipath, fset, pkgs[dir], info)
		checked[dir] = p
		return p, err
	}

	declared := map[types.Object]string{} // exported internal/ object -> its key
	used := map[types.Object]bool{}
	ifaceMethods := map[*types.Func]bool{} // the interface methods some file uses
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		ipath := module
		if dir != "." {
			ipath += "/" + dir
		}
		if _, err := imp(ipath); err != nil {
			return nil, err
		}
		short, internal := strings.CutPrefix(dir, "internal/")
		for _, f := range pkgs[dir] {
			for _, d := range f.Decls {
				// Uses inside d of the objects it declares do not count.
				own := map[types.Object]bool{}
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					own[fn] = true
					key := short + "." + d.Name.Name
					if recv := receiverNamed(fn); recv != nil {
						own[recv.Obj()] = true
						key = short + "." + recv.Obj().Name() + "." + d.Name.Name
					}
					if internal && d.Name.IsExported() {
						declared[fn] = key
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							obj := info.Defs[name]
							own[obj] = true
							if internal && name.IsExported() {
								declared[obj] = short + "." + name.Name
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || info.Uses[id] == nil {
						return true
					}
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						if isInterfaceMethod(fn) {
							ifaceMethods[fn] = true
						}
						obj = fn.Origin() // a generic method's uses count for its declaration
					}
					if !own[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}

	var unnamed []string
	for obj, key := range declared {
		if !used[obj] && !viaInterface(obj, ifaceMethods) {
			unnamed = append(unnamed, key)
		}
	}
	slices.Sort(unnamed)
	return unnamed, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isInterfaceMethod reports whether fn is an interface's method.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// receiverNamed returns the named type fn is a method of, nil for a function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// viaInterface reports whether obj is a method of a type that, as it is or
// through a pointer, implements the interface of one of methods with obj's
// name. A generic type's methods count only by their own uses: Implements
// is unspecified for an uninstantiated type.
func viaInterface(obj types.Object, methods map[*types.Func]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := receiverNamed(fn)
	if recv == nil || recv.TypeParams() != nil {
		return false
	}
	for m := range methods {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// parseModule parses by directory the non-test .go files of fsys that build
// for this platform, skipping testdata and directories whose names start
// with "." or "_".
func parseModule(fset *token.FileSet, fsys fs.FS) (map[string][]*ast.File, error) {
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	pkgs := map[string][]*ast.File{}
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
		dir := path.Dir(name)
		if ok, err := ctxt.MatchFile(dir, path.Base(name)); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	return pkgs, err
}

// TestCallerScanFixture runs the scan on a small in-memory module: a
// function, const or var only a _test.go uses is flagged, a caller in bench/
// counts, a method counts where its own object is used — called, taken as a
// method value, or reached through an interface it implements — but not
// where a method of another type shares its name, an allowlisted name
// passes, and a row that excuses nothing — its function gone, or called now
// — is flagged.
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
func (t *T) Len() int { return 0 }
func (t *T) Hook() {}
func (t T) Area() int { return 0 }
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

type U struct{}

func (U) Len() int { return 1 }

type Shape interface{ Area() int }

func Sum(s Shape) int { return s.Area() }

func Make() *a.T { _ = a.Widget{}; return a.New() }
`),
		"bench/main.go": src(`package main

import "m/internal/a"

func main() { a.Benched() }
`),
		"cmd/c/main.go": src(`package main

import (
	alias "m/internal/a"
	"m/internal/b"
)

func main() { alias.Used(); _ = alias.Size; _ = b.U{}.Len(); hook := alias.New().Hook; hook() }
`),
		"cmd/d/main.go": src(`package main

import "m/internal/b"

func main() { b.Make().Chained(); _ = b.Sum(nil) }
`),
	}
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, fsys)
	if err != nil {
		t.Fatal(err)
	}
	unnamed, err := unnamedAPI(fset, pkgs, "m", importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Self calls only itself; cmd/d reaches Chained through b; b's
	// a.Widget names the type, not the method; cmd/c calls b.U's Len, not
	// a.T's; b.Sum calls Area through b.Shape, which a.T implements; cmd/c
	// takes Hook as a method value; the declaration of Size and Limit names
	// neither.
	if want := []string{"a.Allowed", "a.Limit", "a.OnlyTested", "a.Registry", "a.T.Len", "a.T.Self", "a.T.Widget"}; !slices.Equal(unnamed, want) {
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
		"a.Registry has no non-test caller", "a.T.Len has no non-test caller",
		"a.T.Widget has no non-test caller",
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
