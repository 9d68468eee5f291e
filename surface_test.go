package repro

// The exported surface of internal/ pays rent. An exported top-level
// identifier of an internal package is in use when a non-test file
// outside its package names it (cmd/, examples/ and bench/ count), or
// when it appears in the signature, exported fields, exported method
// signatures or underlying type of an identifier in use. Every exported
// field of an internal *Options or *Config struct must be set (a keyed
// composite-literal element or an assignment) by a non-test file outside
// its package. Anything else must be deleted, unexported, or listed in
// testdata/surface.allow with a reason from a closed set; an entry that
// is no longer needed fails too, so the list only shrinks with the code.
//
// The check type-checks the repository's own packages from source with
// go/types. Standard-library imports are empty stand-ins: only this
// module's identifiers are counted, so the errors they cause are ignored.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// surface is one type-checked tree: a module and any nested module
// (bench/) whose import paths sit under it.
type surface struct {
	module string
	files  map[string][]*ast.File // import path → non-test files
	pkgs   map[string]*types.Package
	info   *types.Info
}

// loadSurface parses every non-test Go file under fsys (testdata and
// dot-directories skipped) and type-checks the packages it finds.
func loadSurface(fsys fs.FS) (*surface, error) {
	mod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	s := &surface{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	if m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod); m != nil {
		s.module = string(m[1])
	} else {
		return nil, fmt.Errorf("go.mod names no module")
	}
	fset := token.NewFileSet()
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := s.module
		if dir := path.Dir(p); dir != "." {
			ip += "/" + dir
		}
		s.files[ip] = append(s.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var check func(ip string) *types.Package
	conf := types.Config{
		Error: func(error) {},
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if _, ok := s.files[ip]; ok {
				return check(ip), nil
			}
			p := types.NewPackage(ip, path.Base(ip))
			p.MarkComplete()
			return p, nil
		}),
	}
	check = func(ip string) *types.Package {
		if p, ok := s.pkgs[ip]; ok {
			return p
		}
		s.pkgs[ip] = nil // an import cycle stops here; Go forbids them anyway
		p, _ := conf.Check(ip, fset, s.files[ip], s.info)
		s.pkgs[ip] = p
		return p
	}
	for ip := range s.files {
		check(ip)
	}
	return s, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

// checked reports whether p is one of the internal packages the rule
// covers.
func (s *surface) checked(p *types.Package) bool {
	return p != nil && strings.HasPrefix(p.Path(), s.module+"/internal/")
}

// key names an object the way the allowlist does: pkg.Name (an option
// field is listed as pkg.Type.Field).
func key(obj types.Object) string { return obj.Pkg().Name() + "." + obj.Name() }

// unused returns the exported top-level identifiers of internal
// packages that are not in use, and the exported option fields that no
// non-test file outside their package sets.
func (s *surface) unused() (exports, fields []string) {
	used := map[types.Object]bool{}
	set := map[*types.Var]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj == nil || !s.checked(obj.Pkg()) || obj.Parent() != obj.Pkg().Scope() || used[obj] {
			return
		}
		used[obj] = true
		work = append(work, obj)
	}
	for ip, files := range s.files {
		pkg := s.pkgs[ip]
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := s.info.Uses[n]; obj != nil && obj.Pkg() != pkg {
						mark(obj)
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								s.setField(set, pkg, id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							s.setField(set, pkg, sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumEmbeddeds(); i++ {
				walk(t.EmbeddedType(i))
			}
			for i := 0; i < t.NumExplicitMethods(); i++ {
				walk(t.ExplicitMethod(i).Type())
			}
		default:
			if u := types.Unalias(t); u != t {
				walk(u)
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		walk(obj.Type())
		if tn, ok := obj.(*types.TypeName); ok {
			walk(tn.Type().Underlying())
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						walk(m.Type())
					}
				}
			}
		}
	}
	for _, pkg := range s.pkgs {
		if !s.checked(pkg) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				exports = append(exports, key(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					fields = append(fields, key(obj)+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(exports)
	sort.Strings(fields)
	return exports, fields
}

// setField records id as set when it names a field of a struct declared
// in another package than pkg, the one whose file sets it.
func (s *surface) setField(set map[*types.Var]bool, pkg *types.Package, id *ast.Ident) {
	if v, ok := s.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
		set[v] = true
	}
}

// allowReasons is the closed set of reasons an export may stay without a
// caller; an option field instead names the ROADMAP item that settles it.
var allowReasons = []string{"paper check", "test reference", "cross-package test fixture", "bench-only"}

// readAllow parses testdata/surface.allow: one "name<TAB>reason" a line,
// # comments and blank lines skipped.
func readAllow(t *testing.T, experiments string) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/surface.allow")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "\t")
		reason = strings.TrimSpace(reason)
		if !ok || reason == "" {
			t.Errorf("surface.allow:%d: want name<TAB>reason, got %q", n, line)
			continue
		}
		if _, dup := allow[name]; dup {
			t.Errorf("surface.allow:%d: %s listed twice", n, name)
		}
		allow[name] = reason
		kind, detail, _ := strings.Cut(reason, ": ")
		switch {
		case strings.Count(name, ".") == 2:
			if !strings.HasPrefix(reason, "ROADMAP ") {
				t.Errorf("surface.allow:%d: option field %s must name the ROADMAP item that settles it", n, name)
			}
		case !slices.Contains(allowReasons, kind) || detail == "":
			t.Errorf("surface.allow:%d: reason %q is not one of %q followed by \": <detail>\"", n, reason, allowReasons)
		case kind == "paper check" && !strings.Contains(experiments, "\n## "+detail):
			t.Errorf("surface.allow:%d: paper check %q names no EXPERIMENTS.md section", n, detail)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func TestEveryExportPaysRent(t *testing.T) {
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllow(t, string(experiments))
	s, err := loadSurface(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pkgs) < 25 {
		t.Fatalf("loaded %d packages; is the test running at the module root?", len(s.pkgs))
	}
	exports, fields := s.unused()
	needed := map[string]bool{}
	for _, name := range append(exports, fields...) {
		needed[name] = true
		if _, ok := allow[name]; !ok {
			what := "exported identifier has no caller outside its package"
			if strings.Count(name, ".") == 2 {
				what = "option field is set by no non-test file outside its package"
			}
			t.Errorf("%s: %s; delete it, unexport it, or allowlist it in testdata/surface.allow", name, what)
		}
	}
	for name := range allow {
		if !needed[name] {
			t.Errorf("surface.allow lists %s, which is in use or gone; drop the entry", name)
		}
	}
}

// TestSurfaceGuardCatchesPlantedExport runs the check on the fixture in
// testdata/surface: one package whose Unused function and
// Options.Unset field nothing outside it names or sets. Both are
// reported by name, and the run is clean once they go.
func TestSurfaceGuardCatchesPlantedExport(t *testing.T) {
	fixture := os.DirFS("testdata/surface")
	fsys := fstest.MapFS{}
	err := fs.WalkDir(fixture, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(fixture, p)
		fsys[p] = &fstest.MapFile{Data: data}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (exports, fields []string) {
		s, err := loadSurface(fsys)
		if err != nil {
			t.Fatal(err)
		}
		return s.unused()
	}
	exports, fields := run()
	if fmt.Sprint(exports) != "[lib.Unused]" || fmt.Sprint(fields) != "[lib.Options.Unset]" {
		t.Fatalf("planted: got exports %v, fields %v; want [lib.Unused], [lib.Options.Unset]", exports, fields)
	}
	lib := fsys["internal/lib/lib.go"]
	src := string(lib.Data)
	for _, planted := range []string{"// Unused is planted.\nfunc Unused() {}\n", "\tUnset int // planted\n"} {
		if !strings.Contains(src, planted) {
			t.Fatalf("fixture lost its planted line %q", planted)
		}
		src = strings.Replace(src, planted, "", 1)
	}
	lib.Data = []byte(src)
	if exports, fields := run(); len(exports)+len(fields) != 0 {
		t.Fatalf("with the planted names removed: got exports %v, fields %v; want none", exports, fields)
	}
}
