package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed names the exported identifiers of internal/ that stay
// although no non-test file uses them, each with its reason. Keys are
// written package.Name, and package.Type.Name for methods and fields.
var testOnlyAllowed = map[string]string{
	// The per-interval reference the control loop is pinned against.
	"controller.Controller.Maybe": "reference path of the control round",
	// A snapshot's keys are recycled two closes later; the tests of five
	// packages that keep one across closes copy it with Clone.
	"stats.Snapshot.Clone": "tests retain snapshots across closes",
}

// TestNoTestOnlyExports type-checks every non-test file of the module
// (internal/, cmd/, examples/ and the nested bench/ module) and fails on
// any exported identifier of internal/ that only tests use: such an
// identifier is a second path beside the production one, or dead code
// that tests keep alive. Exempt are methods that satisfy an interface,
// embedded fields (a promoted selection names the field's members, not
// the field), fields of anonymous struct types, and testOnlyAllowed.
func TestNoTestOnlyExports(t *testing.T) {
	s := loadSurface(t)
	used := s.used()
	ifaces := s.interfaces()
	allowed := maps.Clone(testOnlyAllowed)
	objs := s.internalExports()
	for _, name := range slices.Sorted(maps.Keys(objs)) {
		obj := objs[name]
		if used[obj] || satisfiesInterface(obj, ifaces) {
			continue
		}
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
			continue
		}
		pos := s.fset.Position(obj.Pos())
		t.Errorf("only tests use %s (%s:%d): delete it, or rewrite its tests over what production uses",
			name, filepath.ToSlash(pos.Filename), pos.Line)
	}
	for name := range allowed {
		t.Errorf("testOnlyAllowed names %s, which is gone or has a non-test use", name)
	}
}

// TestNoTestOnlyKnobs fails on an exported field of a named struct type
// of internal/ that non-test code reads but never writes: a knob only
// tests turn, whose other values reach code production never runs. A
// write is the target of an assignment, op-assignment, ++ or --, a key
// or position of a composite literal, an operand of &, or a range
// target. A field reached through an alias (cluster.Spec) is the one
// field.
func TestNoTestOnlyKnobs(t *testing.T) {
	s := loadSurface(t)
	used := s.used()
	written := s.writtenFields()
	objs := s.internalExports()
	for _, name := range slices.Sorted(maps.Keys(objs)) {
		obj := objs[name]
		if v, ok := obj.(*types.Var); !ok || !v.IsField() || !used[obj] || written[obj] {
			continue
		}
		pos := s.fset.Position(obj.Pos())
		t.Errorf("non-test code reads %s (%s:%d) but only tests set it: make its one value the code",
			name, filepath.ToSlash(pos.Filename), pos.Line)
	}
}

var (
	surfaceOnce sync.Once
	surfaceLoad *surface
	surfaceErr  error
)

// loadSurface type-checks every non-test file of the module once per
// test binary.
func loadSurface(t *testing.T) *surface {
	t.Helper()
	surfaceOnce.Do(func() { surfaceLoad, surfaceErr = newSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceLoad
}

func newSurface() (*surface, error) {
	// The standard library's cgo files would need the C toolchain; its
	// pure-Go fallbacks declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	s := &surface{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
	}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir():
				// bench/ is the nested module repro/bench.
				s.dirs["repro/"+filepath.ToSlash(dir)] = dir
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	s.paths = slices.Sorted(maps.Keys(s.dirs))
	for _, p := range s.paths {
		if _, err := s.check(p); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
	}
	return s, nil
}

// surface type-checks the module's packages from source: module
// packages from the walked directories, the standard library through a
// source importer.
type surface struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	dirs    map[string]string // import path → directory
	paths   []string          // the keys of dirs, sorted
	pkgs    map[string]*types.Package
	checked []checkedPkg
}

// checkedPkg is one type-checked package's files and what the checker
// recorded about them.
type checkedPkg struct {
	files []*ast.File
	info  *types.Info
}

func (s *surface) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *surface) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return s.check(path)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// check type-checks one module package, once, and keeps its uses. A
// directory without non-test Go files yields a nil package.
func (s *surface) check(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return nil, &types.Error{Msg: "no directory for " + path}
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		s.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.checked = append(s.checked, checkedPkg{files, info})
	return pkg, nil
}

// interfaces returns every interface with methods that the checked code
// can satisfy: those named in the module's packages and in every package
// they import, directly or not, and the anonymous ones the module
// spells out.
func (s *surface) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range s.pkgs {
		visit(pkg)
	}
	for _, c := range s.checked {
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// internalExports maps the qualified name of each exported object of
// the module's internal/ packages (exported) to the object.
func (s *surface) internalExports() map[string]types.Object {
	out := map[string]types.Object{}
	for _, p := range s.paths {
		if pkg := s.pkgs[p]; pkg != nil && strings.HasPrefix(p, "repro/internal/") {
			maps.Copy(out, exported(pkg))
		}
	}
	return out
}

// used returns every object the checked code uses.
func (s *surface) used() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, c := range s.checked {
		for _, obj := range c.info.Uses {
			out[origin(obj)] = true
		}
	}
	return out
}

// writtenFields returns the struct fields the checked code writes: the
// target of an assignment or op-assignment, of ++ or --, or of a range
// clause, a key or position of a composite literal, or an operand of &.
func (s *surface) writtenFields() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, c := range s.checked {
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					out[origin(v)] = true
				}
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						field(l)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						field(n.Key)
					}
					if n.Value != nil {
						field(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.CompositeLit:
					typ := c.info.Types[n].Type
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem() // an element of []*T{{…}} is typed *T
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								out[origin(c.info.Uses[id])] = true
							}
						} else {
							out[origin(st.Field(i))] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// satisfiesInterface reports whether obj is a method that one of ifaces
// declares and its receiver type (or a pointer to it) implements.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// exported maps the qualified name of each exported package-level object
// of pkg, exported method of its named types, exported method of its
// interfaces, and exported, non-embedded field of its named struct types
// to the object. Fields of anonymous struct types are not listed.
func exported(pkg *types.Package) map[string]types.Object {
	short := strings.TrimPrefix(pkg.Path(), "repro/internal/")
	out := map[string]types.Object{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out[short+"."+name] = obj
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		prefix := short + "." + name + "."
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out[prefix+m.Name()] = m
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() && !f.Embedded() {
					out[prefix+f.Name()] = f
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					out[prefix+m.Name()] = m
				}
			}
		}
	}
	return out
}

// origin maps an instantiated generic member back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
