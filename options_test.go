package botdetect

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wiringOptions are the exported config fields that survive without a
// non-test assignment outside their package: each is deployment wiring
// (rule b: address, path prefix, credential, clock, seed, callback, sink or
// collaborator) or is read back by benchmark/ through a value, which the
// scan cannot see as a field reference. Every entry says which.
var wiringOptions = map[string]string{
	"cdn.NodeConfig.Name":     "rule b: the node's address on the mesh and its telemetry label; cdn.NewNetwork names its own nodes",
	"cdn.NodeConfig.Site":     "rule b: collaborator (the origin); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Engine":   "rule b: collaborator (the detection engine); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Policy":   "rule b: collaborator (the enforcement ladder); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Captcha":  "rule b: collaborator (the CAPTCHA service); cdn.NewNetwork wires it",
	"proxy.AdminConfig.Fleet": "rule b: collaborator (the replicator whose health the status page shows); waits for the socket-fleet binary",
}

// moduleImporter type-checks this module's packages from source, once each,
// keeping the types.Info the scan reads; everything else goes to the
// standard source importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "botdetect")
	if !ok || (dir != "" && dir[0] != '/') {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir = "." + dir
	// benchmark/'s tests name fields too, and "anything under benchmark/"
	// counts; every other package is scanned without its tests.
	withTests := dir == "./benchmark"
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if withTests {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.infos[path], m.files[path] = p, info, files
	return p, nil
}

// module is the module type-checked from source, shared by both guards so
// the ~3 s load is paid once per test binary.
var module struct {
	once sync.Once
	m    *moduleImporter
	err  error
}

// loadModule type-checks every package of the module (benchmark/ with its
// tests, every other package without), or skips under -short.
func loadModule(t *testing.T) *moduleImporter {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	module.once.Do(func() {
		// The source importer reads build.Default: have it pick the pure-Go
		// files of net and os/user instead of running the cgo tool.
		cgo := build.Default.CgoEnabled
		build.Default.CgoEnabled = false
		defer func() { build.Default.CgoEnabled = cgo }()
		fset := token.NewFileSet()
		m := &moduleImporter{
			fset:  fset,
			std:   importer.ForCompiler(fset, "source", nil),
			pkgs:  map[string]*types.Package{},
			infos: map[string]*types.Info{},
			files: map[string][]*ast.File{},
		}
		module.m, module.err = m, filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) == 0 {
				return nil
			}
			if path == "." {
				return nil // the root package is tests only
			}
			_, err = m.Import("botdetect/" + filepath.ToSlash(path))
			return err
		})
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.m
}

// TestEveryOptionHasASetter keeps the settable surface from regrowing: an
// exported field of a *Config / Thresholds / Params struct under internal/
// must be assigned by non-test code outside its declaring package (a cmd/
// flag, an experiments/ arm, cdn wiring an engine) or be named under
// benchmark/; anything else is a constant, or is in wiringOptions with its
// reason — and leaves that list again the day it gains a setter.
func TestEveryOptionHasASetter(t *testing.T) {
	m := loadModule(t)

	// The options: exported fields of the config structs under internal/.
	options := map[*types.Var]string{}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, "botdetect/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || name == "Thresholds" || name == "Params") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					options[f] = strings.TrimPrefix(path, "botdetect/internal/") + "." + name + "." + f.Name()
				}
			}
		}
	}

	// The setters: composite-literal keys, assignment targets, ++/-- and
	// &field (flag.XxxVar) outside the field's package; any mention at all
	// under benchmark/.
	set := map[*types.Var]bool{}
	for path, info := range m.infos {
		field := func(e ast.Expr) *types.Var {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return nil
			}
			v, _ := info.Uses[id].(*types.Var)
			if v == nil || !v.IsField() {
				return nil
			}
			return v
		}
		mark := func(e ast.Expr) {
			if v := field(e); v != nil && v.Pkg().Path() != path {
				set[v] = true
			}
		}
		if path == "botdetect/benchmark" {
			for _, obj := range info.Uses {
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					set[v] = true
				}
			}
			continue
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						mark(l)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}

	byName := map[string]bool{}
	var unset []string
	for f, name := range options {
		byName[name] = true
		switch _, listed := wiringOptions[name]; {
		case !set[f] && !listed:
			unset = append(unset, name)
		case set[f] && listed:
			t.Errorf("wiringOptions lists %s, which non-test code outside its package now sets; drop the entry with its reason", name)
		}
	}
	sort.Strings(unset)
	t.Logf("%d exported config fields under internal/, %d of them in wiringOptions", len(options), len(wiringOptions))
	for _, name := range unset {
		t.Errorf("%s: no non-test code outside its package sets it and benchmark/ does not name it; make it a constant, or add it to wiringOptions with its reason", name)
	}
	for name, why := range wiringOptions {
		if !byName[name] {
			t.Errorf("wiringOptions lists %s, which is not an exported config field any more", name)
		}
		if why == "" {
			t.Errorf("wiringOptions[%s] carries no reason", name)
		}
	}
}
