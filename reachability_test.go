package accelscore_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed is every declaration under internal/ that no non-test
// file reaches, with the reason it stays. The list only shrinks: an entry
// that becomes reached, or whose declaration goes, fails the test too.
var unreachedAllowed = map[string]string{
	// Test seams: accessors that let a package's own tests read state the
	// program never needs to.
	"db.Table.Version":               "db, pipeline and storage tests check that each mutation steps the version",
	"exec.Executor.BreakerState":     "resilience_test reads the executor's circuit breaker",
	"kernel.Compiled.NumNodes":       "kernel and cpuonnx tests check the flattened node count",
	"obs.Gauge.Add":                  "registry tests; Counter, Gauge and Histogram keep one method family",
	"obs.Histogram.Count":            "registry and race tests read a histogram's observation count",
	"obs.RuntimeCollector.Samples":   "runtime_test waits on the collector's sample count",
	"storage.Store.LastLSN":          "metrics_test checks the last-LSN gauge against the store",
	"xrand.Rand.Float32":             "kernel, pagefmt, storage and tensor tests draw float32 inputs",
	"engines/cpusk.Engine.Threads":   "cpusk and backend tests check the thread count a name resolves to",
	"engines/cpuonnx.Engine.Threads": "cpuonnx and backend tests check the thread count a name resolves to",
	// Ablation knobs of the simulated engines: the root benchmarks and the
	// engines' tests switch one overhead off to show what it costs.
	"engines/fpga.Engine.WithoutOverlap":     "fpga ablation in bench_test.go and fpga_test",
	"engines/fpga.Engine.WithBRAMBytes":      "fpga BRAM-budget ablation in bench_test.go and fpga_test",
	"engines/gpu.Hummingbird.WithoutOverlap": "Hummingbird ablation in bench_test.go and gpu_test",
	"engines/gpu.RAPIDS.WithoutConvertCost":  "RAPIDS cuDF-conversion ablation in bench_test.go and gpu_test",
	// The simulated GPU kernel counters (the paper's Nsight profile) and the
	// LogCA speedup are model outputs only tests read so far.
	"engines/gpu.Hummingbird.Profile":         "gpu_test checks the simulated kernel counters",
	"engines/gpu.RAPIDS.Profile":              "gpu_test checks the simulated kernel counters",
	"engines/gpu.KernelProfile.DominantStall": "gpu_test checks which stall dominates",
	"logca.Model.Speedup":                     "logca tests and its example read the model's speedup curve",
}

// stdInterfaces name the standard-library interfaces the module's types are
// handed to: a method with one of their method names is reached through
// them (fmt calls String, net/http calls ServeHTTP and the ResponseWriter
// methods, encoding/json calls MarshalJSON).
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
	{"io", "Writer"},
	{"encoding/json", "Marshaler"},
}

const modulePath = "accelscore"

// modulePkg is one type-checked package of the module.
type modulePkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// moduleImporter type-checks the module's own packages from their non-test
// files for this platform and hands everything else to the standard
// library's source importer, so every package sees the same objects.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	srcs map[string]*build.Package // by import path
	pkgs map[string]*modulePkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.srcs[path]; !ok {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (m *moduleImporter) load(path string) (*modulePkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	bp := m.srcs[path]
	p := &modulePkg{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	var err error
	if p.pkg, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// declSpan is where a declaration's own text lies: a use inside it is the
// declaration talking about itself.
type declSpan struct {
	name     string
	pos, end token.Pos
}

// TestEveryInternalDeclarationIsReached is the reachability ratchet: every
// package-level func, type, var and const under internal/, and every method
// of a type declared there, is referred to by some non-test file of the
// module outside its own declaration. bench/, cmd/ and examples/ count as
// referrers. A method is also reached when an interface of the module, or
// one the standard library calls it through, declares its name.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	// Without cgo the standard library's pure-Go files are the ones
	// type-checked, and no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		srcs: make(map[string]*build.Package),
		pkgs: make(map[string]*modulePkg),
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			m.srcs[path.Join(modulePath, filepath.ToSlash(p))] = bp
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.srcs))
	for p := range m.srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.load(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}

	// The declarations under judgement, and the receiver identifiers that
	// only name a method's own type.
	decls := make(map[types.Object]declSpan)
	receivers := make(map[token.Pos]bool)
	internal := modulePath + "/internal/"
	for _, p := range paths {
		if !strings.HasPrefix(p, internal) {
			continue
		}
		pkg := m.pkgs[p]
		qual := strings.TrimPrefix(p, internal) + "."
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id.Pos()] = true
							}
							return true
						})
						name = recvName(d.Recv.List[0].Type) + "." + name
					} else if name == "init" {
						continue
					}
					decls[pkg.info.Defs[d.Name]] = declSpan{qual + name, d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[pkg.info.Defs[s.Name]] = declSpan{qual + s.Name.Name, s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									decls[pkg.info.Defs[id]] = declSpan{qual + id.Name, s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}

	// What the module's non-test files reach: uses outside the used
	// declaration's own text, and the method names interfaces declare.
	reached := make(map[types.Object]bool)
	// errors.Is and errors.As call Unwrap through an interface the standard
	// library never names.
	ifaceMethods := map[string]bool{"Unwrap": true}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaceMethods[it.Method(i).Name()] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, si := range stdInterfaces {
		sp, err := m.std.Import(si.pkg)
		if err != nil {
			t.Fatal(err)
		}
		addIface(sp.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	for _, p := range paths {
		pkg := m.pkgs[p]
		for id, obj := range pkg.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			span, ok := decls[obj]
			if !ok || receivers[id.Pos()] || span.pos <= id.Pos() && id.Pos() < span.end {
				continue
			}
			reached[obj] = true
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(pkg.info.TypeOf(it).Underlying().(*types.Interface))
				}
				return true
			})
		}
	}

	unreached := make(map[string]string) // name -> position
	for obj, span := range decls {
		if reached[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			continue
		}
		unreached[span.name] = fset.Position(span.pos).String()
	}
	names := make([]string, 0, len(unreached))
	for name := range unreached {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := unreachedAllowed[name]; !ok {
			t.Errorf("%s: %s is declared but no non-test file reaches it: delete it", unreached[name], name)
		}
	}
	for name := range unreachedAllowed {
		if _, ok := unreached[name]; !ok {
			t.Errorf("%s is on the allow-list but is reached now, or gone: take it off", name)
		}
	}
	t.Logf("%d packages, %d declarations under internal/, %d unreached",
		len(paths), len(decls), len(unreached))
}

// recvName is the name of a method receiver's base type.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
