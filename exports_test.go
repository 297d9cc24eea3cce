package heapmd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported funcs and methods of internal
// packages that may have no caller in a non-test file. A key is a whole
// package ("ds"), a method name on any receiver ("*.Error"), or one
// func or method ("trace.Replay", "prog.Process.Heap"), and must name a declaration that exists. Every
// other export must be selected by some non-test file of the module or
// of bench/.
var exportAllowlist = map[string]bool{
	// Libraries whose inspection API the workloads and examples use
	// in part and their own tests (ds_test.go, oracle_test.go,
	// machine_test.go) use in full.
	"ds":      true,
	"machine": true,

	// Called through interfaces the caller does not name: error (and
	// errors.Is/As), fmt.Stringer, event.Sink, event.BatchSink and
	// logger.SampleObserver.
	"*.Error":     true,
	"*.Unwrap":    true,
	"*.String":    true,
	"*.Emit":      true,
	"*.EmitBatch": true,
	"*.Sample":    true,

	// Reference walks the incremental component trackers are
	// checked against: TestComputeExtendedMatchesReference
	// (internal/metrics) and the root component benchmarks.
	"heapgraph.Graph.WeaklyConnectedComponents":   true,
	"heapgraph.Graph.StronglyConnectedComponents": true,
	// Both trackers against those walks: TestSoakComponentsOracle
	// (internal/soak) and the workloads connectivity oracle.
	"heapgraph.Graph.CheckComponents": true,
	// Degree, histogram and adjacency consistency: the heapgraph_test
	// package's logger-driven tests (logger_bound_test.go) and every
	// heapgraph mutation test.
	"heapgraph.Graph.CheckInvariants": true,

	// Strict and salvaging replay at the default reader settings:
	// TestPostMortemAgreesWithLive (internal/experiments), the root replay
	// benchmarks, and trace's salvage, fuzz and cross-version tests.
	"trace.Replay":  true,
	"trace.Salvage": true,

	// The simulated heap behind a process and what tests read off it:
	// live-object counts in TestAllWorkloadsRunCleanly and
	// TestTypoLeakLeaksObjects (internal/workloads), live objects and
	// allocator statistics in TestInstrumentedSemanticsUnchanged
	// (internal/instrument).
	"prog.Process.Heap": true,
	"heap.Sim.Live":     true,
	"heap.Sim.Stats":    true,

	// The tallying test sink: TestEventEmission (internal/heap) counts
	// the heap's events with it.
	"event.Counter.Count": true,
}

// TestInternalExportsHaveProductionCallers fails when a package under
// internal/ exports a func or method that no non-test file of the
// module (cmd/, examples/ and bench/ included) selects, unless
// exportAllowlist names it. Funcs are matched by package and name.
// Methods are matched by name alone, so a method shares its callers
// with every method of the same name; a selector that is not called
// counts only when its name is no struct field's.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		paths = append(paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A selector that is not called may read a struct field rather
	// than take a method value; it counts as a method use only when no
	// struct of the module has a field of that name.
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields[name.Name] = true
					}
				}
			}
			return true
		})
	}

	const internal = "heapmd/internal/"
	funcs := map[string]bool{}   // "pkg.Name" selected through an import
	methods := map[string]bool{} // names called, or taken as method values
	for _, f := range files {
		imports := map[string]string{} // local name -> internal package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, internal) {
				continue
			}
			pkg := strings.TrimPrefix(p, internal)
			local := pkg[strings.LastIndex(pkg, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = pkg
		}
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if called[sel] || !fields[sel.Sel.Name] {
				methods[sel.Sel.Name] = true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					funcs[pkg+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	declared := map[string]bool{}
	for i, f := range files {
		if !strings.HasPrefix(paths[i], "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(paths[i])), "internal/")
		declared[pkg] = true
		if exportAllowlist[pkg] {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv == nil {
				key := pkg + "." + name
				declared[key] = true
				if !funcs[key] && !exportAllowlist[key] {
					unused = append(unused, key)
				}
				continue
			}
			key := pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + name
			declared[key], declared["*."+name] = true, true
			if !methods[name] && !exportAllowlist[key] && !exportAllowlist["*."+name] {
				unused = append(unused, key)
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

// receiverName returns the type name of a method receiver expression.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
