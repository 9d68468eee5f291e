package repro

// The surface of internal/ pays rent, in two halves with one allowlist.
//
// Exports. An exported top-level identifier of an internal package is
// in use when a non-test file outside its package names it (cmd/,
// examples/ and bench/ count), or when it appears in the signature,
// exported fields, exported method signatures or underlying type of an
// identifier in use. Every exported field of an internal *Options or
// *Config struct must be set (a keyed composite-literal element or an
// assignment) by a non-test file outside its package. The check
// type-checks the repository's own packages from source with go/types.
// Standard-library imports are empty stand-ins: only this module's
// identifiers are counted, so the errors they cause are ignored.
//
// Functions. Every non-test function and method of internal/ is reached
// by a binary: the linker keeps it when some main package of the module
// (cmd/, examples/) or of bench/ runs it. The check builds them all with
// inlining off and reads the linker's -dumpdep edges.
//
// Anything else must be deleted, unexported, or listed in
// testdata/surface.allow with a reason from a closed set; an entry that
// is no longer needed fails too, so the list only shrinks with the code.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
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
	fset   *token.FileSet
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
	s.fset = fset
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

// fn is one non-test function or method of internal/.
type fn struct {
	name  string // as the allowlist names it: pkg.F, pkg.T.M or pkg.(*T).M
	sym   string // as the linker names it: the import path in place of pkg
	pos   token.Position
	lines int
}

// funcs lists the non-test functions and methods of internal/ in file
// order; init functions aside, which no caller names.
func (s *surface) funcs() []fn {
	var out []fn
	for ip, files := range s.files {
		if !strings.HasPrefix(ip, s.module+"/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				pos, end := s.fset.Position(fd.Pos()), s.fset.Position(fd.End())
				out = append(out, fn{name: f.Name.Name + "." + name, sym: ip + "." + name, pos: pos, lines: end.Line - pos.Line + 1})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return out
}

// recvName spells a receiver type the way the linker does, T or (*T),
// with its type parameters dropped.
func recvName(e ast.Expr) string {
	star, isStar := e.(*ast.StarExpr)
	if isStar {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if isStar {
		return "(*" + name + ")"
	}
	return name
}

// dumpFlag is a flag the linker appends to a -dumpdep symbol.
var dumpFlag = regexp.MustCompile(`(<[A-Za-z]+>)+$`)

// reachable reads the linker's -dumpdep lines ("from -> to") and returns
// every symbol of the module's internal packages they name, flags such
// as <UsedInIface> and generic instantiations stripped:
// "repro/internal/exp.Parallel[go.shape.int]" reads as
// "repro/internal/exp.Parallel".
func reachable(dump []byte, module string) map[string]bool {
	reached := map[string]bool{}
	for _, line := range strings.Split(string(dump), "\n") {
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if !strings.HasPrefix(sym, module+"/internal/") {
				continue
			}
			var b strings.Builder
			depth := 0
			for _, r := range dumpFlag.ReplaceAllString(sym, "") {
				switch {
				case r == '[':
					depth++
				case r == ']':
					depth--
				case depth == 0:
					b.WriteRune(r)
				}
			}
			reached[b.String()] = true
		}
	}
	return reached
}

// dumpdep builds every main package of the module and of bench/ with
// inlining off, since a function inlined at every call site is no
// linker symbol, and returns the linker's -dumpdep edges.
func dumpdep(t *testing.T) []byte {
	t.Helper()
	bin := t.TempDir()
	var dump []byte
	for _, args := range [][]string{
		{"build", "-o", bin, "-gcflags=all=-l", "-ldflags=-dumpdep", "./cmd/...", "./examples/..."},
		{"build", "-C", "bench", "-o", bin, "-gcflags=all=-l", "-ldflags=-dumpdep", "./..."},
	} {
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			var msg []string
			for _, line := range strings.Split(string(out), "\n") {
				if !strings.Contains(line, " -> ") {
					msg = append(msg, line)
				}
			}
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, strings.Join(msg, "\n"))
		}
		dump = append(dump, out...)
	}
	return dump
}

// unreached holds the functions no binary reaches against the
// allowlist: each is reported as file:line name (N lines) unless listed,
// and an entry naming a function that is reached is stale unless the
// export half needs it too.
func unreached(funcs []fn, reached map[string]bool, allow map[string]string, exportNeeded map[string]bool) []string {
	var errs []string
	dead := map[string]bool{}
	n, lines := 0, 0
	for _, f := range funcs {
		if reached[f.sym] {
			continue
		}
		dead[f.name] = true
		if _, ok := allow[f.name]; ok {
			continue
		}
		n++
		lines += f.lines
		errs = append(errs, fmt.Sprintf("%s:%d %s (%d lines): no binary reaches it; delete it or allowlist it in testdata/surface.allow", f.pos.Filename, f.pos.Line, f.name, f.lines))
	}
	if n > 0 {
		errs = append(errs, fmt.Sprintf("%d functions (%d lines) are reached by no binary", n, lines))
	}
	for _, f := range funcs {
		if _, ok := allow[f.name]; ok && !dead[f.name] && !exportNeeded[f.name] {
			errs = append(errs, fmt.Sprintf("surface.allow lists %s, which a binary reaches; drop the entry", f.name))
		}
	}
	return errs
}

// allowReasons is the closed set of reasons a name may stay without a
// caller; an option field instead names the ROADMAP item that settles it.
var allowReasons = []string{"paper check", "test reference", "cross-package test fixture", "bench-only"}

// parseAllow parses testdata/surface.allow: one "name<TAB>reason" a
// line, # comments and blank lines skipped.
func parseAllow(text, experiments string) (allow map[string]string, errs []string) {
	allow = map[string]string{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "\t")
		reason = strings.TrimSpace(reason)
		if !ok || reason == "" {
			errs = append(errs, fmt.Sprintf("surface.allow:%d: want name<TAB>reason, got %q", n+1, line))
			continue
		}
		if _, dup := allow[name]; dup {
			errs = append(errs, fmt.Sprintf("surface.allow:%d: %s listed twice", n+1, name))
		}
		allow[name] = reason
		kind, detail, _ := strings.Cut(reason, ": ")
		switch {
		case strings.HasPrefix(reason, "ROADMAP "):
		case !slices.Contains(allowReasons, kind) || detail == "":
			errs = append(errs, fmt.Sprintf("surface.allow:%d: reason %q is not one of %q followed by \": <detail>\"", n+1, reason, allowReasons))
		case kind == "paper check" && !strings.Contains(experiments, "\n## "+detail):
			errs = append(errs, fmt.Sprintf("surface.allow:%d: paper check %q names no EXPERIMENTS.md section", n+1, detail))
		}
	}
	return allow, errs
}

// loadGuard reads the allowlist and type-checks the repository.
func loadGuard(t *testing.T) (map[string]string, *surface) {
	t.Helper()
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("testdata/surface.allow")
	if err != nil {
		t.Fatal(err)
	}
	allow, errs := parseAllow(string(text), string(experiments))
	for _, e := range errs {
		t.Error(e)
	}
	s, err := loadSurface(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pkgs) < 25 {
		t.Fatalf("loaded %d packages; is the test running at the module root?", len(s.pkgs))
	}
	return allow, s
}

// exportNeeds returns what the export half flags, by name.
func (s *surface) exportNeeds() (needed, fields map[string]bool) {
	exports, opts := s.unused()
	needed, fields = map[string]bool{}, map[string]bool{}
	for _, name := range exports {
		needed[name] = true
	}
	for _, name := range opts {
		needed[name] = true
		fields[name] = true
	}
	return needed, fields
}

// sortedKeys returns m's keys in order, so reports read the same each run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestEveryExportPaysRent(t *testing.T) {
	allow, s := loadGuard(t)
	needed, fields := s.exportNeeds()
	for _, name := range sortedKeys(needed) {
		if _, ok := allow[name]; !ok {
			what := "exported identifier has no caller outside its package"
			if fields[name] {
				what = "option field is set by no non-test file outside its package"
			}
			t.Errorf("%s: %s; delete it, unexport it, or allowlist it in testdata/surface.allow", name, what)
		}
	}
	isFunc := map[string]bool{}
	for _, f := range s.funcs() {
		isFunc[f.name] = true
	}
	for _, name := range sortedKeys(allow) {
		roadmap := strings.HasPrefix(allow[name], "ROADMAP ")
		switch {
		case !needed[name] && !isFunc[name]:
			t.Errorf("surface.allow lists %s, which is in use or gone; drop the entry", name)
		case fields[name] && !roadmap:
			t.Errorf("surface.allow: option field %s must name the ROADMAP item that settles it", name)
		case !fields[name] && roadmap:
			t.Errorf("surface.allow: only an option field names a ROADMAP item; give %s a reason from %q", name, allowReasons)
		}
	}
}

// TestEveryFunctionIsReached is the guard's second half. An entry that
// names a function is stale here, not in TestEveryExportPaysRent, once
// neither half needs it.
func TestEveryFunctionIsReached(t *testing.T) {
	allow, s := loadGuard(t)
	reached := reachable(dumpdep(t), s.module)
	if len(reached) < 500 {
		t.Fatalf("the linker named %d symbols of internal/; did -dumpdep change its format?", len(reached))
	}
	needed, _ := s.exportNeeds()
	for _, e := range unreached(s.funcs(), reached, allow, needed) {
		t.Error(e)
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

// TestReachGuardCatchesPlantedFunction runs the reach check with no
// build: a synthetic -dumpdep text against a source with an unreached
// function, an unreached pointer method and two generics reached only
// as instantiations, and an allowlist with a stale entry. The two
// unreached functions and the stale entry are reported, the generics
// are not, and the run is clean once the entries are settled.
func TestReachGuardCatchesPlantedFunction(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module fixture\n")},
		"internal/lib/lib.go": {Data: []byte(`package lib

type T struct{}

func (t *T) Used() {}

func (t *T) Dead() {}

func (t T) Value() {}

type Box[E any] struct{ e E }

func (b *Box[E]) Get() E { return b.e }

func Map[E any](e E) E { return e }

func Dead() {
}

func init() {}
`)},
	}
	dump := []byte(`# fixture/cmd/app
_ -> main.main
main.main -> fixture/internal/lib.(*T).Used
main.main -> fixture/internal/lib.Map[go.shape.int]
main.main -> fixture/internal/lib.(*Box[go.shape.func(int) error]).Get
main.main -> type:*fixture/internal/lib.T<UsedInIface>
type:*fixture/internal/lib.T<UsedInIface> -> fixture/internal/lib.T.Value<UsedInIface><ReflectMethod>
`)
	s, err := loadSurface(fsys)
	if err != nil {
		t.Fatal(err)
	}
	reached := reachable(dump, s.module)
	allow := map[string]string{"lib.(*T).Used": "test reference: planted, and stale"}
	got := strings.Join(unreached(s.funcs(), reached, allow, nil), "\n")
	for _, want := range []string{
		"internal/lib/lib.go:7 lib.(*T).Dead (1 lines): no binary reaches it",
		"internal/lib/lib.go:17 lib.Dead (2 lines): no binary reaches it",
		"2 functions (3 lines) are reached by no binary",
		"surface.allow lists lib.(*T).Used, which a binary reaches",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("planted: report lacks %q; got\n%s", want, got)
		}
	}
	for _, quiet := range []string{"Map", "Get", "Value", "init"} {
		if strings.Contains(got, quiet) {
			t.Errorf("planted: %s is reached, yet reported:\n%s", quiet, got)
		}
	}
	allow = map[string]string{"lib.Dead": "test reference: settled", "lib.(*T).Dead": "test reference: settled"}
	if errs := unreached(s.funcs(), reached, allow, nil); len(errs) != 0 {
		t.Fatalf("with the entries settled: %q; want none", errs)
	}
}
