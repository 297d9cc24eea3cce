package heapmd

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported funcs and methods of internal
// packages that may have no caller in a non-test file. A key is a whole
// package ("ds"), a method name on any receiver ("*.Error"), or one
// func or method ("trace.Replay", "prog.Process.Heap"), and must name a
// declaration that exists. Every other export must be used by some
// non-test file of the module or of bench/.
var exportAllowlist = map[string]bool{
	// Libraries whose inspection API the workloads and examples use
	// in part and their own tests (ds_test.go, oracle_test.go,
	// machine_test.go) use in full.
	"ds":      true,
	"machine": true,

	// Called through interfaces from the standard library, which the
	// scan does not read: fmt.Stringer and errors.Unwrap.
	"*.Unwrap": true,
	"*.String": true,

	// Both component trackers against the reference walks:
	// TestSoakComponentsOracle (internal/soak) and the workloads
	// connectivity oracle.
	"heapgraph.Graph.CheckComponents": true,

	// Strict replay at the default reader settings:
	// TestPostMortemAgreesWithLive (internal/experiments) and the root
	// replay benchmarks.
	"trace.Replay": true,

	// The simulated heap behind a process and what tests read off it:
	// live-object counts in TestAllWorkloadsRunCleanly and
	// TestTypoLeakLeaksObjects (internal/workloads), live objects and
	// allocator statistics in TestInstrumentedSemanticsUnchanged
	// (internal/instrument).
	"prog.Process.Heap": true,
	"heap.Sim.Live":     true,
	"heap.Sim.Stats":    true,
	// The simulated allocator's realloc, which no workload calls: the
	// logger's realloc tests (internal/logger logger_test.go) drive
	// Realloc events through it.
	"heap.Sim.Realloc": true,
}

// TestInternalExportsHaveProductionCallers fails when a package under
// internal/ exports a func or method that no non-test file of the
// module (cmd/, examples/ and bench/ included) uses, unless
// exportAllowlist names it. The non-test files are type-checked
// (go/types, the standard library through the source importer), so a
// use names one declaration: a func counts when another package
// refers to it, a method when any file calls it or takes it as a value
// on its own receiver type (promoted through embedding or not). A call
// through an interface names the interface's method, and counts for the
// method that implements it on every type of the module that
// implements the interface.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	mod := newModuleChecker()
	if err := mod.parse("."); err != nil {
		t.Fatal(err)
	}
	var pkgs []*types.Package
	for _, dir := range mod.dirs {
		pkg, err := mod.check(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	// uses holds the key of every internal func another package
	// refers to and of every internal method any file uses; ifaces,
	// every interface method any file uses.
	uses := map[string]bool{}
	ifaces := map[*types.Func]bool{}
	for ident, obj := range mod.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		switch {
		case recv != nil && types.IsInterface(recv.Type()):
			ifaces[fn] = true
		case recv != nil || fn.Pkg() != nil && fn.Pkg().Path() != mod.importPath(mod.pkgOf[ident]):
			if key, internal := exportKey(fn); internal {
				uses[key] = true
			}
		}
	}
	// A method that implements a used interface method for some type
	// of the module, as that type's own method or promoted to it, is
	// used.
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(t)
				for im := range ifaces {
					iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
					if !types.Implements(t, iface) {
						continue
					}
					if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
						if key, internal := exportKey(sel.Obj().(*types.Func)); internal {
							uses[key] = true
						}
					}
				}
			}
		}
	}

	var unused []string
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		name, ok := strings.CutPrefix(pkg.Path(), "heapmd/internal/")
		if !ok {
			continue
		}
		declared[name] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if fn, ok := obj.(*types.Func); ok && fn.Exported() {
				unused = append(unused, unusedKey(fn, uses, declared)...)
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					unused = append(unused, unusedKey(m, uses, declared)...)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test file calls it: unexport it, move it to a _test.go file, or allowlist it with the test that needs it", key)
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported func, method or package under internal/", key)
		}
	}
}

// exportKey returns the allowlist key of fn, "pkg.Func" or
// "pkg.Type.Method" with pkg relative to heapmd/internal/, and whether
// fn belongs to an internal package. A method of an instantiated
// generic type maps to its generic declaration.
func exportKey(fn *types.Func) (string, bool) {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "", false
	}
	pkg, ok := strings.CutPrefix(fn.Pkg().Path(), "heapmd/internal/")
	if !ok {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name(), true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name(), true
}

// unusedKey records fn in declared and returns its key when neither
// uses nor the allowlist accounts for it.
func unusedKey(fn *types.Func, uses, declared map[string]bool) []string {
	key, _ := exportKey(fn)
	pkg := key[:strings.Index(key, ".")]
	declared[key] = true
	star := ""
	if fn.Type().(*types.Signature).Recv() != nil {
		star = "*." + fn.Name()
		declared[star] = true
	}
	if uses[key] || exportAllowlist[key] || exportAllowlist[pkg] || exportAllowlist[star] {
		return nil
	}
	return []string{key}
}

// moduleChecker type-checks the non-test Go files of the module and of
// bench/, one package per directory, importing module packages from
// the files it parsed and the standard library from source.
type moduleChecker struct {
	fset  *token.FileSet
	dirs  []string               // package directories, slash-separated
	files map[string][]*ast.File // by directory
	pkgs  map[string]*types.Package
	info  *types.Info
	pkgOf map[*ast.Ident]string // directory of the file holding each identifier
	std   types.Importer
}

func newModuleChecker() *moduleChecker {
	fset := token.NewFileSet()
	return &moduleChecker{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
		pkgOf: map[*ast.Ident]string{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
}

// importPath returns the import path of the package in dir. bench/ is
// its own module, heapmd/bench, which the root module's tree contains.
func (m *moduleChecker) importPath(dir string) string {
	if dir == "." {
		return "heapmd"
	}
	return "heapmd/" + dir
}

// parse reads every non-test Go file under root, skipping testdata and
// hidden directories.
func (m *moduleChecker) parse(root string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		if m.files[dir] == nil {
			m.dirs = append(m.dirs, dir)
		}
		m.files[dir] = append(m.files[dir], f)
		return nil
	})
}

// check type-checks the package in dir once, recording the objects its
// identifiers use.
func (m *moduleChecker) check(dir string) (*types.Package, error) {
	if pkg, ok := m.pkgs[dir]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return pkg, nil
	}
	m.pkgs[dir] = nil
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(m.importPath(dir), m.fset, m.files[dir], info)
	if err != nil {
		return nil, err
	}
	for ident, obj := range info.Uses {
		m.info.Uses[ident] = obj
		m.pkgOf[ident] = dir
	}
	m.pkgs[dir] = pkg
	return pkg, nil
}

// Import implements types.Importer: module packages come from the
// parsed files, everything else from the standard library's source.
func (m *moduleChecker) Import(p string) (*types.Package, error) {
	if p == "heapmd" {
		return m.check(".")
	}
	if dir, ok := strings.CutPrefix(p, "heapmd/"); ok {
		if m.files[dir] == nil {
			return nil, fmt.Errorf("no non-test Go files for %s", p)
		}
		return m.check(dir)
	}
	return m.std.Import(p)
}
