package tpusim

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
	"unicode"
)

// docFiles are the documents whose code names TestDocsNameLiveCode holds to
// the code: everything a reader of the repository reads about the design,
// but not the history (CHANGES.md, ROADMAP.md) and not bench/README.md,
// which belongs with the benchmark it describes.
func docFiles(fsys fs.FS) ([]string, error) {
	docs, err := fs.Glob(fsys, "docs/*.md")
	if err != nil {
		return nil, err
	}
	return append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}, docs...), nil
}

// TestDocsNameLiveCode holds every Go name the documents cite in backticks
// to the code: each must resolve to a declaration of the module (test files,
// struct fields and bench/ included) or, package-qualified, of the standard
// library. A name the code no longer has may be cited only as history, in
// the one form "`name` (deleted in PR N)", and only while it stays gone.
func TestDocsNameLiveCode(t *testing.T) {
	fsys := os.DirFS(".")
	docs, err := docFiles(fsys)
	if err != nil {
		t.Fatal(err)
	}
	std, err := newStdlib()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDocNames(fsys, docs, std)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// checkDocNames returns one problem, "file:line: ...", per Go name cited in
// a backtick span of docs (paths in fsys) that resolves nowhere without the
// deleted-in tag, or that resolves and carries the tag.
func checkDocNames(fsys fs.FS, docs []string, std *stdlib) ([]string, error) {
	mod, err := indexModule(fsys)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, doc := range docs {
		src, err := fs.ReadFile(fsys, doc)
		if err != nil {
			return nil, err
		}
		for _, c := range codeSpans(string(src)) {
			name, ok := goName(c.text)
			if !ok {
				continue
			}
			live := mod.resolves(name, std)
			switch tagged := deletedTag.MatchString(c.after); {
			case !live && !tagged:
				problems = append(problems, doc+":"+strconv.Itoa(c.line)+": `"+c.text+"` names nothing in the module or the standard library: fix it, or cite it as history, \"`"+c.text+"` (deleted in PR N)\"")
			case live && tagged:
				problems = append(problems, doc+":"+strconv.Itoa(c.line)+": `"+c.text+"` is tagged deleted, but the code still declares it")
			}
		}
	}
	return problems, nil
}

// deletedTag is the one form of a historical mention, read from the text
// right after the closing backtick; a line break may fall inside it.
var deletedTag = regexp.MustCompile(`^\s+\(deleted\s+in\s+PR\s+\d+\)`)

type codeSpan struct {
	text  string // between the backticks
	line  int    // of the opening backtick
	after string // the document's text after the closing backtick
}

// codeSpans returns the single-backtick spans of a Markdown document outside
// its fenced code blocks; a span may cross a line break.
func codeSpans(doc string) []codeSpan {
	var spans []codeSpan
	fenced := false
	line := 1
	for i := 0; i < len(doc); i++ {
		switch {
		case doc[i] == '\n':
			line++
		case (i == 0 || doc[i-1] == '\n') && strings.HasPrefix(doc[i:], "```"):
			fenced = !fenced
			i += 2
		case doc[i] == '`' && !fenced:
			end := strings.IndexByte(doc[i+1:], '`')
			if end < 0 {
				return spans
			}
			text := doc[i+1 : i+1+end]
			spans = append(spans, codeSpan{text: text, line: line, after: doc[i+2+end:]})
			line += strings.Count(text, "\n")
			i += end + 1
		}
	}
	return spans
}

var (
	// goShaped is an identifier, or identifiers joined by dots, optionally
	// behind a package path (systolic/kerneltest.Each).
	goShaped = regexp.MustCompile(`^(?:[a-z][a-z0-9]*/)*[A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*)*$`)
	// methodExpr is a method expression's receiver, systolic.(*Array).
	methodExpr = regexp.MustCompile(`\.\(\*?([A-Za-z][A-Za-z0-9]*)\)\.`)
	// fileExts end names that are files, not code: images.go, kernel.s.
	fileExts = []string{"go", "s", "md", "json", "sh", "mod", "sum", "txt", "csv", "out", "html", "yaml", "yml", "prof"}
)

// goName reports whether a code span cites a Go name and returns it without
// a call's arguments, type arguments, a method expression's parentheses or
// a leading * or &. Metric names (snake_case), file names, paths, commands,
// flags, expressions, all-caps mnemonics and all-lowercase words are not Go
// names; a bare identifier is one only when it mixes cases (swarPair, Tile).
func goName(s string) (string, bool) {
	s = methodExpr.ReplaceAllString(strings.TrimLeft(s, "*&"), ".$1.")
	if i := strings.IndexAny(s, "(["); i > 0 && (strings.HasSuffix(s, ")") || strings.HasSuffix(s, "]")) {
		s = s[:i]
	}
	if !goShaped.MatchString(s) {
		return "", false
	}
	s = s[strings.LastIndexByte(s, '/')+1:]
	parts := strings.Split(s, ".")
	if len(parts) == 1 {
		return s, strings.ContainsAny(s, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") && strings.ContainsAny(s, "abcdefghijklmnopqrstuvwxyz")
	}
	if slices.Contains(fileExts, parts[len(parts)-1]) {
		return "", false
	}
	return s, true
}

// nameIndex holds what a set of Go packages declares.
type nameIndex struct {
	declared map[string]bool            // every identifier any declaration names, locals and parameters included
	pkgs     map[string]map[string]bool // package name -> its top-level names
	members  map[string]map[string]bool // "pkg.Type" and "Type" -> its methods and fields; "pkg." -> every member in pkg
}

func newNameIndex() *nameIndex {
	return &nameIndex{declared: map[string]bool{}, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
}

func (x *nameIndex) member(pkg, typ, name string) {
	for _, key := range []string{pkg + "." + typ, typ, pkg + "."} {
		if x.members[key] == nil {
			x.members[key] = map[string]bool{}
		}
		x.members[key][name] = true
	}
}

// add records the declarations of one file of package pkg.
func (x *nameIndex) add(pkg string, f *ast.File) {
	if x.pkgs[pkg] == nil {
		x.pkgs[pkg] = map[string]bool{}
	}
	top := x.pkgs[pkg]
	fields := func(typ string, fl *ast.FieldList) {
		for _, fd := range fl.List {
			for _, n := range fd.Names {
				x.member(pkg, typ, n.Name)
			}
			if len(fd.Names) == 0 { // embedded: the field is named by its type
				t := fd.Type
				if st, ok := t.(*ast.StarExpr); ok {
					t = st.X
				}
				if sel, ok := t.(*ast.SelectorExpr); ok {
					t = sel.Sel
				}
				if id, ok := t.(*ast.Ident); ok {
					x.member(pkg, typ, id.Name)
				}
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				x.member(pkg, typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields(s.Name.Name, t.Fields)
					case *ast.InterfaceType:
						fields(s.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				x.declared[id.Name] = true
			}
		case *ast.FuncDecl:
			x.declared[n.Name.Name] = true
		case *ast.TypeSpec:
			x.declared[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				x.declared[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						x.declared[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						x.declared[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

// recvType is the name of a method's receiver type, type parameters and
// pointer dropped.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// indexModule indexes every .go file of fsys, test files and files for
// other platforms included, skipping testdata and directories whose names
// start with "." or "_". A package is indexed under its package clause's
// name (an external test package under the package it tests) and under its
// directory's name.
func indexModule(fsys fs.FS) (*nameIndex, error) {
	x := newNameIndex()
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
		if !strings.HasSuffix(name, ".go") {
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
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		x.add(pkg, f)
		if dir := path.Base(path.Dir(name)); dir != pkg && dir != "." {
			x.add(dir, f)
		}
		return nil
	})
	return x, err
}

// resolves reports whether name — Ident, X.Y or X.Y.Z — is declared. A
// bare identifier is one declared anywhere in the module. Where X is a
// package of the module or the standard library, Y is one of its top-level
// names or a method or field of one of its types, and Z a method or field of
// type Y (of any type of X where Y is a variable, as binary.LittleEndian
// is). Otherwise an uppercase X is a module type and Y one of its methods or
// fields, and a lowercase X is a variable, whose expression (x.F, mu.Lock)
// the check does not follow.
func (x *nameIndex) resolves(name string, std *stdlib) bool {
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return x.declared[name]
	}
	pkg, isPkg := parts[0], false
	for _, idx := range []*nameIndex{x, std.index(pkg)} {
		if idx == nil || idx.pkgs[pkg] == nil {
			continue
		}
		isPkg = true
		top, anyMember := idx.pkgs[pkg][parts[1]], idx.members[pkg+"."]
		if len(parts) == 2 && (top || anyMember[parts[1]]) ||
			len(parts) > 2 && top && (idx.members[pkg+"."+parts[1]][parts[2]] || anyMember[parts[2]]) {
			return true
		}
	}
	switch {
	case isPkg:
		return false
	case unicode.IsUpper(rune(pkg[0])):
		return x.members[pkg][parts[1]]
	}
	return true
}

// stdlib indexes standard-library packages by name, each the first time a
// document cites it.
type stdlib struct {
	dirs   map[string][]string // package name -> its directories under GOROOT/src
	loaded map[string]*nameIndex
}

// newStdlib lists the package directories of the toolchain's GOROOT/src,
// skipping internal, vendor, cmd and testdata trees.
func newStdlib() (*stdlib, error) {
	s := &stdlib{dirs: map[string][]string{}, loaded: map[string]*nameIndex{}}
	err := filepath.WalkDir(filepath.Join(build.Default.GOROOT, "src"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch d.Name() {
		case "testdata", "internal", "vendor", "cmd":
			return fs.SkipDir
		}
		s.dirs[d.Name()] = append(s.dirs[d.Name()], p)
		return nil
	})
	return s, err
}

// index returns the declarations of the standard-library packages named
// pkg, or nil if there is none.
func (s *stdlib) index(pkg string) *nameIndex {
	if x, ok := s.loaded[pkg]; ok {
		return x
	}
	var x *nameIndex
	fset := token.NewFileSet()
	for _, dir := range s.dirs[pkg] {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go")) // the pattern is well formed
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil || f.Name.Name != pkg {
				continue // a file of another package (a command's main), or one for a newer toolchain
			}
			if x == nil {
				x = newNameIndex()
			}
			x.add(pkg, f)
		}
	}
	s.loaded[pkg] = x
	return x
}

// TestDocNameCheckFixture runs the check on a small in-memory module and
// document: a name the module no longer declares fails with its file and
// line, passes in the deleted-in form, and a live name in that form fails;
// a standard-library name, a live field, a metric name, a file name, a
// flag and a mnemonic pass, and a deleted field fails.
func TestDocNameCheckFixture(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	fsys := fstest.MapFS{
		"internal/systolic/kernel.go": src(`package systolic

type Tile struct{ w []int8 }

func (t *Tile) at(r, c int) int8 { return t.w[r*256+c] }

func mulRangeSWAR(rows int) { quads := rows / 4; _ = quads }
`),
		"internal/runtime/resilient.go": src(`package runtime

type Resilience struct{ MaxAttempts int }
`),
		"DOC.md": src("# Kernels\n\n" +
			"The `swar` rung walks `mulRangeSWAR` over `quads`,\n" +
			"two rows at a time through `swarPair`.\n" +
			"It used to pair rows in `swarPair` (deleted in\nPR 57), and reads `Tile.w` through `Tile.at`.\n" +
			"`mulRangeSWAR` (deleted in PR 57) is still there.\n" +
			"`sync.Once`, `Resilience.MaxAttempts`, `systolic.ns_per_mac`, `kernel_amd64.s`,\n" +
			"`images.go`, `-race`, `make ci`, `VPDPBUSD`, `systolic.(*Tile).at`\n" +
			"and `binary.LittleEndian.Uint64` pass; `Resilience.AttemptTimeout` and `Tile.W` do not.\n" +
			"```\nswarPair(a, b)\n```\n"),
	}
	std, err := newStdlib()
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkDocNames(fsys, []string{"DOC.md"}, std)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DOC.md:4: `swarPair` names nothing",
		"DOC.md:7: `mulRangeSWAR` is tagged deleted",
		"DOC.md:10: `Resilience.AttemptTimeout` names nothing",
		"DOC.md:10: `Tile.W` names nothing",
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
