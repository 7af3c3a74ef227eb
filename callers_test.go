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
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// callerAllowlist names the code of internal/ packages, exported or not,
// that no non-test file has to use, one reason per row. A key is
// "pkg.Name" for a function or type, "pkg.Type.Name" for a method or field
// (pkg is the directory under internal/), or "*.Name" for every method of
// that name; TestEveryExportedNameHasACaller fails on a row that matches
// nothing unnamed, so the list cannot outlive what it excuses.
var callerAllowlist = map[string]string{
	// Interface methods, called by code outside the module that holds the
	// interface.
	"*.ServeHTTP": "http.Handler: net/http calls it",
	"*.String":    "fmt calls it through fmt.Stringer",

	// Test-support API.
	"obs.CheckExposition":      "the strict exposition-format check every package's Prometheus test runs on its output",
	"systolic/kerneltest.Each": "runs a test of another package once under each matrix kernel rung the host has",

	// Test seams: the switches that hold a vector pass or a kernel rung to
	// its scalar oracle. systolic/kerneltest.Each reaches them by
	// go:linkname, which the scan does not follow; their own package's
	// tests call them directly.
	"fixed.useVector":   "turns fixed's row passes off so tests compare them with the scalar Go",
	"fixed.useWide":     "turns fixed's AVX-512 passes off so tests run the AVX2 passes an AVX2-only host runs",
	"tensor.useVector":  "turns tensor's float passes off so tests compare them with the scalar Go",
	"tensor.useWide":    "turns tensor's AVX-512 matmul off so tests run the AVX2 pass an AVX2-only host runs",
	"systolic.runUnder": "picks the kernel rung MultiplyInto runs so tests cover every rung the host has, not only the fastest",

	// Cross-package test helpers, which no _test.go of their own package can
	// hold for another package's tests.
	"systolic.Tile.Bytes":         "tpu's TestTileLoadAliasesWeightDRAM (make bench-gate) checks by address that a loaded tile views the weight DRAM",
	"tpu.Device.WeightTileCopies": "runtime's compile_test.go (make bench-gate) counts the weight tiles a flip copied",
	"des.Loop.Pending":            "cluster's chaos tests check that a rejected plan leaves the calendar as it was",
	"fault.Injector.Revive":       "runtime's quarantine tests revive a killed device to watch a probe re-admit it",
	"fault.Injector.Events":       "runtime's TestChaosDeterminism compares two servers' per-device fault logs",
	"fault.Event.Seq":             "the fault log runtime's TestChaosDeterminism and fault's same-seed tests compare",
	"fault.Event.Kind":            "the fault log runtime's TestChaosDeterminism and fault's same-seed tests compare",
	"fault.Event.Addr":            "the fault log fault's same-seed tests compare",
	"workload.NewMultiPeriod":     "cluster's golden and chaos tests drive their fleets with it, and the golden bytes depend on its rates",
	"isa.Program.Count":           "compiler's tests count the halts, matrix multiplies and operand DMAs a compiled program holds",

	// Code whose fate is an open decision.
	"nn.Layer.PoolWindow":      "no program builds a Pool layer; whether the kind stays is ROADMAP item 17's decision",
	"workload.Harmonic.Amp":    "reaches the code only through workload.NewMultiPeriod, allowlisted above",
	"workload.Harmonic.Period": "reaches the code only through workload.NewMultiPeriod, allowlisted above",
	"workload.Harmonic.Phase":  "reaches the code only through workload.NewMultiPeriod, allowlisted above",

	// The fleet simulator's self-report: every fired event bumps one
	// counter, and only TestEventCounts reads them. They are the evidence
	// ROADMAP items 5(a) and 10 need; printing them is item 7(a)'s work.
	"cluster.Cluster.counts":                "the by-kind split of EventsProcessed; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.arrivals":          "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.fillTimers":        "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.fillTimersVoided":  "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.completions":       "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.completionsVoided": "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",
	"cluster.eventCounts.controller":        "read by TestEventCounts; printing it is ROADMAP item 7(a)'s work",

	// Oracles: the instruction wire form is what the decoder fuzz targets,
	// the encode round trips and the compiler's instruction-budget golden
	// read; nothing outside the tests ships programs as bytes.
	"isa.Program.Encode": "writes the wire form the decode fuzz targets, round trips and instruction-budget golden read",
	"isa.DecodeProgram":  "parses the wire form for FuzzDecode, FuzzProgramValidate and the encode round trips",
}

// TestEveryExportedNameHasACaller holds DESIGN.md's rule "tests are not
// callers" for exported and unexported names alike: every function,
// method, type, var and const of an internal/ package is used by a non-test
// .go file of the module, bench/ included, and every field of its structs
// is read and written there, or has a row in callerAllowlist. The standard
// library's types come from its export data; the test fails if that cannot
// be loaded.
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
func checkAllowlist(unnamed map[string]string, allow map[string]string) []string {
	var problems []string
	used := map[string]bool{}
	for _, key := range slices.Sorted(maps.Keys(unnamed)) {
		wild := "*." + key[strings.LastIndexByte(key, '.')+1:]
		switch {
		case allow[key] != "":
			used[key] = true
		case strings.Count(key, ".") == 2 && allow[wild] != "":
			used[wild] = true
		default:
			problems = append(problems, key+" "+unnamed[key]+": delete it, unexport it, move it into a _test.go or allowlist it with a reason")
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
// returns, by key, what is missing from the code of internal/ packages,
// exported or not: "has no non-test caller" for a function (init aside),
// method, type, var or const no file uses outside its own declaration (for
// a type: outside its declaration and its own methods), and "no program
// reads it" or "no program writes it" for a named field of a struct type.
// Each identifier is resolved to the object it names, so a method counts
// only where its own object is used — called, or taken as a method value or
// expression — or where its type, or a pointer to it, implements an
// interface whose method some file uses. A field is written by an
// assignment (op= included), ++ or --, a literal's key or a positional
// literal, or an element assignment x.F[i] = v; taking its address (&x.F,
// &x.F[i], or calling a pointer method on it, as mu.Lock() does) reads and
// writes it; every other use reads it, except the x.F inside
// x.F = append(x.F, ...). Every field of a struct used as a key of a map or
// a sync.Map counts as read: hashing and comparing the key read them. A
// json-tagged field counts as read: encoding/json reads it where a program
// marshals its type.
func unnamedAPI(fset *token.FileSet, pkgs map[string][]*ast.File, module string, std types.Importer) (map[string]string, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

	declared := map[types.Object]string{} // internal/ object -> its key
	used := map[types.Object]bool{}
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
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
					if internal && (d.Recv != nil || d.Name.Name != "init") {
						declared[fn] = key
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
							if st, ok := s.Type.(*ast.StructType); ok && internal {
								declareFields(st, short+"."+s.Name.Name, info, declared, read)
							}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							obj := info.Defs[name]
							own[obj] = true
							if internal && name.Name != "_" {
								declared[obj] = short + "." + name.Name
							}
						}
					}
				}
				acc := fieldAccess(d, info)
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && isSyncMapKey(info, call) {
						readKey(info.TypeOf(call.Args[0]), read)
					}
					if lit, ok := n.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
						if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
							t := info.TypeOf(lit)
							if p, ok := t.(*types.Pointer); ok {
								t = p.Elem() // an elided &T in a literal of pointers
							}
							if st, ok := t.Underlying().(*types.Struct); ok {
								for i := range st.NumFields() {
									written[st.Field(i).Origin()] = true
								}
							}
						}
					}
					id, ok := n.(*ast.Ident)
					if !ok || info.Uses[id] == nil {
						return true
					}
					obj := info.Uses[id]
					switch o := obj.(type) {
					case *types.Var:
						if o.IsField() {
							v := o.Origin() // a generic struct's fields count for its declaration
							a, ok := acc[id]
							if !ok {
								a = reads
							}
							read[v] = read[v] || a&reads != 0
							written[v] = written[v] || a&writes != 0
							return true
						}
					case *types.Func:
						if isInterfaceMethod(o) {
							ifaceMethods[o] = true
						}
						obj = o.Origin() // a generic method's uses count for its declaration
					}
					if !own[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}

	for _, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			readKey(m.Key(), read)
		}
	}

	unnamed := map[string]string{}
	for obj, key := range declared {
		v, _ := obj.(*types.Var)
		field := v != nil && v.IsField()
		switch {
		case field && !read[v]:
			unnamed[key] = "is a field, but no program reads it"
		case field && !written[v]:
			unnamed[key] = "is a field, but no program writes it"
		case !field && !used[obj] && !viaInterface(obj, ifaceMethods):
			unnamed[key] = "has no non-test caller"
		}
	}
	return unnamed, nil
}

// declareFields adds the named fields of st, a struct type whose key is
// typeKey, to declared, and marks the json-tagged ones read.
func declareFields(st *ast.StructType, typeKey string, info *types.Info, declared map[types.Object]string, read map[*types.Var]bool) {
	for _, fl := range st.Fields.List {
		for _, name := range fl.Names {
			if name.Name == "_" {
				continue
			}
			v := info.Defs[name].(*types.Var)
			declared[v] = typeKey + "." + name.Name
			if fl.Tag != nil {
				if tag, err := strconv.Unquote(fl.Tag.Value); err == nil {
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						read[v] = true
					}
				}
			}
		}
	}
}

// access is what a field identifier does with its field.
type access uint8

const (
	reads access = 1 << iota
	writes
)

// fieldAccess returns, for each field identifier inside n that does more or
// less than read its field, what it does: an assignment (op= included), ++,
// --, an element assignment x.F[i] = v or a literal's key writes it; taking
// its address (&x.F, &x.F[i], or calling a pointer method on it) reads and
// writes it; and the x.F inside x.F = append(x.F, ...) does neither.
func fieldAccess(n ast.Node, info *types.Info) map[*ast.Ident]access {
	acc := map[*ast.Ident]access{}
	// lvalue gives the field e selects, through element indexing and the
	// struct values it is part of, access a.
	var lvalue func(e ast.Expr, a access)
	lvalue = func(e ast.Expr, a access) {
		switch e := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			lvalue(e.X, a)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				acc[e.Sel] |= a
				if !sel.Indirect() {
					lvalue(e.X, a)
				}
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				lvalue(l, writes)
			}
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(call.Args) > 0 && isBuiltin(info, call.Fun, "append") {
					if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && types.ExprString(sel) == types.ExprString(n.Lhs[0]) {
						acc[sel.Sel] = 0
					}
				}
			}
		case *ast.IncDecStmt:
			lvalue(n.X, writes)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lvalue(n.X, reads|writes)
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				acc[id] = writes // a struct literal's key; any other key is no field
			}
		case *ast.SelectorExpr:
			// A pointer method called on an addressable value takes its address.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				if _, ptr := sel.Recv().Underlying().(*types.Pointer); ptrRecv && !ptr {
					lvalue(n.X, reads|writes)
				}
			}
		}
		return true
	})
	return acc
}

// readKey marks every field of t read when t is a struct: hashing and
// comparing a map key read them all.
func readKey(t types.Type, read map[*types.Var]bool) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			read[st.Field(i).Origin()] = true
		}
	}
}

// isSyncMapKey reports whether call is a sync.Map method whose first
// argument is a key.
func isSyncMapKey(info *types.Info, call *ast.CallExpr) bool {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel := info.Selections[fun]
	if sel == nil || sel.Kind() != types.MethodVal {
		return false
	}
	fn := sel.Obj().(*types.Func)
	recv := receiverNamed(fn)
	params := fn.Type().(*types.Signature).Params()
	return recv != nil && recv.Obj().Pkg().Path() == "sync" && recv.Obj().Name() == "Map" && params.At(0).Name() == "key"
}

// isBuiltin reports whether fun names the builtin function name.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
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
// — is flagged. A field only tests read, or only written — by a keyed or
// positional literal, ++ or x.F = append(x.F, ...) — is flagged, and so is
// one programs read and never set; writing through &x.F, a pointer method
// or an element counts, a json tag counts as a read, and a generic struct's
// fields count for its declaration. Unexported names follow the same rules:
// a write-only field and a function only a _test.go calls are flagged,
// while a sync.Mutex or sync.Once used only through its pointer methods, a
// field read only through &x.F, and the fields of a map or sync.Map key
// are not.
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

type Rec struct {
	Name, Shown string
	Hits        int
	Log         []string
	TestRead    int
}
type Pair struct{ X, Y int }
type Config struct{ Limit int }
type Counter struct{ n int }

func (c *Counter) Add(n int) { c.n += n }

type Acc struct {
	Sum Counter
	Ptr int
	Buf [4]int
}
type Report struct {
	Count int ` + "`json:\"count\"`" + `
}
type Box[V any] struct{ Val, Spare V }
`),
		"internal/a/inner.go": src(`package a

import "sync"

type state struct {
	mu      sync.Mutex
	once    sync.Once
	n       int
	pending int
}

type key struct {
	name  string
	batch int
}

type syncKey struct{ id int }

var (
	cache = map[key]int{}
	seen  sync.Map
)

func (s *state) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.once.Do(func() {})
	add(&s.n)
	s.pending++
}

func add(p *int) { *p++ }

func helper() {}

func Run() int {
	var s state
	s.bump()
	cache[key{"x", 1}]++
	seen.Store(syncKey{id: 1}, true)
	return len(cache)
}
`),
		"internal/a/a_test.go": src(`package a

func use() { OnlyTested(); Allowed(); New().Self(); _ = Limit + Registry["x"]; _ = Rec{TestRead: 1}.TestRead; helper() }
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
		"cmd/e/main.go": src(`package main

import "m/internal/a"

func main() {
	r := a.Rec{Name: "n", Shown: "s"}
	r.Hits++
	r.Log = append(r.Log, r.Shown)
	_ = a.Pair{1, 2}
	var c a.Config
	_ = c.Limit
	var acc a.Acc
	acc.Sum.Add(1)
	p := &acc.Ptr
	*p = 1
	acc.Buf[0] = 1
	_, _, _ = acc.Sum, acc.Ptr, acc.Buf
	_ = a.Report{Count: 1}
	box := a.Box[int]{Val: 1}
	box.Spare = 2
	_ = box.Val
	_ = a.Run()
}
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
	// neither. Counter's n is only added to; state's pending only
	// incremented.
	const caller, reads, writes = "has no non-test caller", "is a field, but no program reads it", "is a field, but no program writes it"
	want := map[string]string{
		"a.Allowed": caller, "a.Limit": caller, "a.OnlyTested": caller, "a.Registry": caller,
		"a.T.Len": caller, "a.T.Self": caller, "a.T.Widget": caller,
		"a.Rec.Name": reads, "a.Rec.Hits": reads, "a.Rec.Log": reads, "a.Rec.TestRead": reads,
		"a.Pair.X": reads, "a.Pair.Y": reads, "a.Box.Spare": reads,
		"a.Counter.n": reads, "a.state.pending": reads, "a.helper": caller,
		"a.Config.Limit": writes,
	}
	if !maps.Equal(unnamed, want) {
		t.Fatalf("unnamed %v, want %v", unnamed, want)
	}

	got := checkAllowlist(unnamed, map[string]string{
		"a.Allowed":   "test support",
		"*.Self":      "an interface method",
		"a.Used":      "called by cmd/c now",
		"a.Gone":      "deleted",
		"a.Rec.Name":  "read by a program outside the module",
		"a.Acc.Sum":   "read by cmd/e now",
		"a.Pair.X":    "read by tests",
		"a.Pair.Y":    "read by tests",
		"a.Box.Spare": "read by tests",
	})
	wantProblems := []string{
		"a.Config.Limit is a field, but no program writes it",
		"a.Counter.n is a field, but no program reads it",
		"a.Limit has no non-test caller", "a.OnlyTested has no non-test caller",
		"a.Rec.Hits is a field, but no program reads it", "a.Rec.Log is a field, but no program reads it",
		"a.Rec.TestRead is a field, but no program reads it",
		"a.Registry has no non-test caller", "a.T.Len has no non-test caller",
		"a.T.Widget has no non-test caller",
		"a.helper has no non-test caller", "a.state.pending is a field, but no program reads it",
		"allowlist row a.Acc.Sum excuses nothing",
		"allowlist row a.Gone excuses nothing", "allowlist row a.Used excuses nothing",
	}
	if len(got) != len(wantProblems) {
		t.Fatalf("problems %q, want %d", got, len(wantProblems))
	}
	for i := range wantProblems {
		if !strings.HasPrefix(got[i], wantProblems[i]) {
			t.Errorf("problem %d = %q, want it to start %q", i, got[i], wantProblems[i])
		}
	}
}
