package sciview

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// pkgNames indexes one internal package's declarations: top holds package-
// level funcs, types, vars and consts; member holds method, struct-field
// and interface-method names (of any type in the package).
type pkgNames struct{ top, member map[string]bool }

func indexPackage(t *testing.T, dir string) *pkgNames {
	t.Helper()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	parsed, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	idx := &pkgNames{top: map[string]bool{}, member: map[string]bool{}}
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				idx.member[n.Name] = true
			}
		}
	}
	for _, p := range parsed {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						idx.member[d.Name.Name] = true
					} else {
						idx.top[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								idx.top[n.Name] = true
							}
						case *ast.TypeSpec:
							idx.top[s.Name.Name] = true
							switch typ := s.Type.(type) {
							case *ast.StructType:
								fields(typ.Fields)
							case *ast.InterfaceType:
								fields(typ.Methods)
							}
						}
					}
				}
			}
		}
	}
	return idx
}

var (
	docSpan   = regexp.MustCompile("`[^`\n]+`")
	docFlag   = regexp.MustCompile("^`-([a-z][a-z0-9-]*)")
	docSymbol = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Z][A-Za-z0-9_]*)+)`)
	docPath   = regexp.MustCompile(`\b(?:cmd/)?internal/[a-z0-9]+(?:/[A-Za-z0-9_]+\.go)?`)
)

// docFiles are the documents the doc tests scan. CHANGES.md, which may
// name what is gone, is not among them.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "CONTRIBUTING.md"}

// TestDocsNameLiveSymbols keeps the prose honest: every backticked
// `pkg.Ident[.Member]` whose pkg is a directory under internal/, and every
// backticked [cmd/]internal/<pkg>[/file.go] path, must still exist. Ident may be
// a package-level name or a method (docs write `service.Submit`); members
// may be methods or fields. A symbol named only to say it is gone belongs
// in CHANGES.md, which is not scanned.
func TestDocsNameLiveSymbols(t *testing.T) {
	pkgs := map[string]*pkgNames{}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(text), "\n") {
			for _, span := range docSpan.FindAllString(line, -1) {
				for _, p := range docPath.FindAllString(span, -1) {
					if _, err := os.Stat(p); err != nil {
						t.Errorf("%s:%d: %s names a path that does not exist", doc, ln+1, p)
					}
				}
				for _, m := range docSymbol.FindAllStringSubmatch(span, -1) {
					dir := filepath.Join("internal", m[1])
					if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
						continue // not one of ours: a stdlib package, a variable, a file name
					}
					if pkgs[m[1]] == nil {
						pkgs[m[1]] = indexPackage(t, dir)
					}
					idx := pkgs[m[1]]
					for i, id := range strings.Split(m[2][1:], ".") {
						if idx.member[id] || (i == 0 && idx.top[id]) {
							continue
						}
						t.Errorf("%s:%d: `%s%s`: internal/%s declares no %s", doc, ln+1, m[1], m[2], m[1], id)
						break
					}
				}
			}
		}
	}
}

var docMetric = regexp.MustCompile(`\bsciview_[a-z_]+`)

// TestDocsNameLiveMetrics keeps the prose's metric names honest: every
// backticked sciview_* name must appear as a string literal in some
// non-test .go file, which is where metrics are registered.
func TestDocsNameLiveMetrics(t *testing.T) {
	literals := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					literals[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(text), "\n") {
			for _, span := range docSpan.FindAllString(line, -1) {
				for _, name := range docMetric.FindAllString(span, -1) {
					if !literals[name] {
						t.Errorf("%s:%d: %s: no program registers %s", doc, ln+1, span, name)
					}
				}
			}
		}
	}
}

// goTestFlags are the go test flags the documents may name.
var goTestFlags = []string{"race", "short", "run", "bench", "count", "fuzz", "fuzztime", "timeout", "v"}

// declaredFlags collects the names of the flags the programs declare: the
// string-literal name argument of every flag.X / flag.XVar call (on the
// package or on a FlagSet) in cmd/** and bench/*.go.
func declaredFlags(t *testing.T) map[string]bool {
	t.Helper()
	var files []string
	err := filepath.WalkDir("cmd", func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := filepath.Glob("bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, bench...)
	// nameArg maps each flag-declaring method to its name argument's index.
	nameArg := map[string]int{"Func": 0, "BoolFunc": 0, "Var": 1, "TextVar": 1}
	for _, k := range []string{"Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration"} {
		nameArg[k], nameArg[k+"Var"] = 0, 1 // flag.String("name", ...), flag.StringVar(&p, "name", ...)
	}
	flags := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", f, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := nameArg[sel.Sel.Name]
			if !ok || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				flags[strings.Trim(lit.Value, "`\"")] = true
			}
			return true
		})
	}
	return flags
}

// TestDocsNameLiveFlags keeps the prose's flags honest: every backticked
// span that starts with a single-dash -name must name a flag some program
// (a cmd/ binary or bench) declares, or a go test flag.
func TestDocsNameLiveFlags(t *testing.T) {
	flags := declaredFlags(t)
	for _, f := range goTestFlags {
		flags[f] = true
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(text), "\n") {
			for _, span := range docSpan.FindAllString(line, -1) {
				if m := docFlag.FindStringSubmatch(span); m != nil && !flags[m[1]] {
					t.Errorf("%s:%d: %s: no program declares -%s", doc, ln+1, span, m[1])
				}
			}
		}
	}
}
