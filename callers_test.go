package faucets

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that no non-test file calls and that stay anyway, each with
// the reason. A key is the package name, then the receiver's type name
// for a method, then the function's: "grid.Grid.KillShard".
var exportAllowlist = map[string]string{
	"grid.Grid.KillShard":         "fault seam: tests kill a shard of the in-process grid",
	"grid.Grid.RestartShard":      "fault seam: tests restart a killed shard on its state dir",
	"grid.Grid.RestartCentral":    "fault seam: tests restart the unsharded Central Server",
	"grid.Grid.RestartDaemon":     "fault seam: tests restart a daemon on its journal",
	"grid.Grid.MetricsAddr":       "test seam: tests scrape a component's /metrics page",
	"auth.Authenticator.SetClock": "clock seam: session expiry is tested without sleeping",
	"chaos.Injector.Partition":    "fault seam: tests cut a link between two addresses",
	"chaos.Injector.Stats":        "fault seam: tests assert how many faults were injected",
	"db.DB.FailWALAppends":        "fault seam: tests fail the WAL to check acks wait on durability",
	"sim.NewWallClock":            "ROADMAP item 15: the clock seam's wall-time implementation",
	"sim.FromDuration":            "ROADMAP item 15: the clock seam's conversion from time.Duration",
	"sim.ToDuration":              "ROADMAP item 15: the clock seam's conversion to time.Duration",
	"experiments.Table.Get":       "ROADMAP item 10: the experiments' cell reader, until experiments goes",
	"health.Set.State":            "ROADMAP item 8: the breaker state a status page will show",
	"telemetry.CheckExposition":   "the format check every /metrics page's tests run against",
	"db.DB.Spend":                 "ROADMAP item 1: the reader of the sum-spend-equals-sum-revenue check",
}

// TestEveryExportHasACaller type-checks every non-test package of the
// module and fails on any exported function or method under internal/
// that no non-test file uses, so the packages cannot regrow entrances
// that only tests reach. A method also counts as used when its type
// satisfies an interface, declared or imported by the module, that has
// the method: the call is dynamic. An allowlisted name that gains a
// caller or no longer exists fails too.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	im := &srcImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:   importer.ForCompiler(fset, "gc", nil),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, 0)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Join("faucets", path))
			im.files[pkg] = append(im.files[pkg], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range im.files {
		if _, err := im.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range im.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			used[f.Origin()] = true
		}
	}
	// The interfaces a call may go through: error, the Unwrap the errors
	// package asserts, every non-empty interface a module package or one
	// of its imports declares, and every interface literal in the module.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces := map[*types.Interface]bool{
		errType.Underlying().(*types.Interface):                       true,
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(): true,
	}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	var named []types.Type
	seen := map[*types.Package]bool{}
	for _, p := range im.pkgs {
		for _, q := range append(p.Imports(), p) {
			if seen[q] {
				continue
			}
			seen[q] = true
			for _, name := range q.Scope().Names() {
				tn, ok := q.Scope().Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if types.IsInterface(tn.Type()) {
					addIface(tn.Type())
				} else if im.pkgs[q.Path()] == q && !tn.IsAlias() && tn.Type().(*types.Named).TypeParams() == nil {
					named = append(named, tn.Type())
				}
			}
		}
	}
	for _, tv := range im.info.Types {
		if _, literal := tv.Type.(*types.Interface); literal {
			addIface(tv.Type)
		}
	}
	// A method a module type reaches an interface with, its own or one
	// promoted from an embedded field, is called dynamically.
	for _, t := range named {
		ptr := types.NewPointer(t)
		for it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	callerless := map[string]token.Position{}
	for path, files := range im.files {
		if !strings.HasPrefix(path, "faucets/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := im.info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				key := fn.Pkg().Name() + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = fn.Pkg().Name() + "." + recvName(recv.Type()) + "." + fn.Name()
				}
				callerless[key] = fset.Position(fd.Pos())
			}
		}
	}
	var keys []string
	for key := range callerless {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s: %s is exported and only tests call it; give it a production caller or delete it", callerless[key], key)
		}
	}
	for key := range exportAllowlist {
		if _, ok := callerless[key]; !ok {
			t.Errorf("allowlisted %s has a non-test caller or no longer exists; drop it from exportAllowlist", key)
		}
	}
}

// recvName is the name of a method's receiver type, without its pointer
// or type arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// srcImporter type-checks the module's packages from source on first
// import, recording every package's uses in one types.Info, and takes
// everything else from the gc compiler's export data.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	im.pkgs[path] = p
	return p, err
}
