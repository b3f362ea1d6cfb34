package castanet_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal/ that stay
// without a non-test caller, each with the reason it stays. At most 5.
var exportAllowlist = map[string]string{
	"internal/ipc.Dial": "the socket side of the paper's UNIX-IPC coupling; " +
		"TestRemoteLoopbackOverTCP and the serve tests run a coupling over TCP with it",
	"internal/cosim.(*Entity).LagInvariantHolds": "the paper's lag property (the HDL clock never " +
		"runs ahead of the network horizon), checked by the cosim and coverify tests",
	"internal/hdl.(*Simulator).Process": "the sensitivity-list process; the device models use " +
		"only Clocked, but kernel tests in five packages build their designs with it",
	"internal/hdl.(*Simulator).Step": "one instant that never elides or folds; the bounded runs " +
		"execute instants through the internal step, and the hdl, obs and campaign tests and " +
		"the obs overhead benchmarks (BENCH_obs.json) step the kernel with it",
}

// TestExportedHaveProductionCallers: every exported func, method, type
// and var of internal/ is referenced by non-test code somewhere in the
// repository (cmd/, examples/, the nested cvbench module, or its own
// package), so library surface that only tests drive cannot pile up.
func TestExportedHaveProductionCallers(t *testing.T) {
	if len(exportAllowlist) > 5 {
		t.Fatalf("allowlist has %d entries; at most 5", len(exportAllowlist))
	}
	unused, err := unusedExports(".", "internal")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, name := range unused {
		flagged[name] = true
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s: exported, but no non-test code references it", name)
		}
	}
	for name, why := range exportAllowlist {
		if why == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
		if !flagged[name] {
			t.Errorf("allowlist entry %s has a production caller (or is gone); drop it", name)
		}
	}
}

// TestUnusedExportsFixture runs the scan over a small module: a name
// only a test calls is flagged, a called name and a method that
// satisfies an interface non-test code uses are not.
func TestUnusedExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

type T struct{}

func (T) String() string { return "t" }

func (T) Detached() {}

func Used() T { return T{} }

func TestOnly() {}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) { TestOnly(); T{}.Detached() }
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Used()) }
`,
	}
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, err := unusedExports(root, "internal")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.T.Detached", "internal/lib.TestOnly"}
	if fmt.Sprint(unused) != fmt.Sprint(want) {
		t.Errorf("unused = %v, want %v", unused, want)
	}
}

// unusedExports type-checks every package under root (nested modules
// included, test files excluded) and returns, sorted, the exported
// funcs, methods, types and vars declared under root/scope that no
// non-test code references. A method also counts as referenced when its
// receiver type implements an interface that non-test code uses
// (usedInterfaces). References from inside a name's own
// declaration (recursion, method receivers) do not count.
func unusedExports(root, scope string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &moduleScan{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			s.module = strings.TrimSpace(m)
		}
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	err = walkGoFiles(root, true, func(p string) error {
		dir, name := filepath.Split(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(s.module, filepath.ToSlash(rel))
		s.files[ip] = append(s.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.files))
	for ip := range s.files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := s.Import(ip); err != nil {
			return nil, err
		}
	}
	return s.unused(path.Join(s.module, scope), paths)
}

// moduleScan type-checks a module's packages from source into one
// shared types.Info; the standard library comes from compiler export
// data.
type moduleScan struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	files  map[string][]*ast.File
	pkgs   map[string]*types.Package
	info   *types.Info
}

// Import checks a module package from source on first use (the build
// already rejects import cycles) and defers anything else to std.
func (s *moduleScan) Import(ip string) (*types.Package, error) {
	if ip != s.module && !strings.HasPrefix(ip, s.module+"/") {
		return s.std.Import(ip)
	}
	if pkg, ok := s.pkgs[ip]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(ip, s.fset, s.files[ip], s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[ip] = pkg
	return pkg, nil
}

// unused lists the exported declarations of the packages under prefix
// that nothing references.
func (s *moduleScan) unused(prefix string, paths []string) ([]string, error) {
	// own maps an identifier that sits in its object's own declaration
	// to that object, so the reference is not counted as a use.
	own := map[*ast.Ident]types.Object{}
	type decl struct {
		obj  types.Object
		name string
	}
	var decls []decl
	for _, ip := range paths {
		if ip != prefix && !strings.HasPrefix(ip, prefix+"/") {
			continue
		}
		short := strings.TrimPrefix(ip, s.module+"/")
		for _, f := range s.files[ip] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := s.info.Defs[d.Name]
					name := short + "." + d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						ptr := ""
						if star, ok := recv.(*ast.StarExpr); ok {
							recv, ptr = star.X, "*"
						}
						if ix, ok := recv.(*ast.IndexExpr); ok {
							recv = ix.X
						}
						base := recv.(*ast.Ident)
						own[base] = s.info.Uses[base]
						name = short + "." + base.Name + "." + d.Name.Name
						if ptr != "" {
							name = short + ".(*" + base.Name + ")." + d.Name.Name
						}
					}
					markOwn(d, obj, s.info, own)
					if d.Name.IsExported() {
						decls = append(decls, decl{obj, name})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := s.info.Defs[spec.Name]
							markOwn(spec, obj, s.info, own)
							if spec.Name.IsExported() {
								decls = append(decls, decl{obj, short + "." + spec.Name.Name})
							}
						case *ast.ValueSpec:
							if d.Tok != token.VAR {
								continue
							}
							for _, n := range spec.Names {
								if n.IsExported() {
									decls = append(decls, decl{s.info.Defs[n], short + "." + n.Name})
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		if o, ok := own[id]; ok && o == obj {
			continue
		}
		used[origin(obj)] = true
	}
	ifaces, err := s.usedInterfaces()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if used[d.obj] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && implementsAny(fn, ifaces) {
			continue
		}
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out, nil
}

// markOwn records every reference to obj inside node as a self-reference.
func markOwn(node ast.Node, obj types.Object, info *types.Info, own map[*ast.Ident]types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			own[id] = obj
		}
		return true
	})
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// usedInterfaces returns, by method name, the interfaces that appear in
// non-test code: as a type of any expression, as a parameter or result
// of any function value (so standard-library parameters such as
// io.Writer count), plus error, fmt.Stringer, and the Unwrap chain that
// errors.Is and errors.As follow once non-test code calls either.
func (s *moduleScan) usedInterfaces() (map[string][]*types.Interface, error) {
	seen := map[types.Type]bool{}
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for _, tv := range s.info.Types {
		add(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					add(tup.At(i).Type())
				}
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		return nil, err
	}
	add(fmtPkg.Scope().Lookup("Stringer").Type())
	// errors.Is and errors.As walk a chain through Unwrap() error.
	for _, obj := range s.info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "errors" && (fn.Name() == "Is" || fn.Name() == "As") {
			res := types.NewTuple(types.NewVar(token.NoPos, nil, "", errType))
			unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, res, false))
			add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
			break
		}
	}
	return byMethod, nil
}

// implementsAny reports whether fn is a method whose receiver type (or
// a pointer to it) implements one of the interfaces declaring a method
// of fn's name.
func implementsAny(fn *types.Func, byMethod map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range byMethod[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
