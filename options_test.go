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
// non-test assignment outside their package, or with one value in use: each
// is deployment wiring (rule b: address, path prefix, credential, clock,
// seed, callback, sink, collaborator or network timing) or is read back by
// benchmark/ through a value, which the scan cannot see as a field
// reference. Every entry says which.
var wiringOptions = map[string]string{
	"cdn.NodeConfig.Name":    "rule b: the node's address on the mesh and its telemetry label; cdn.NewNetwork names its own nodes",
	"cdn.NodeConfig.Site":    "rule b: collaborator (the origin); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Engine":  "rule b: collaborator (the detection engine); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Policy":  "rule b: collaborator (the enforcement ladder); cdn.NewNetwork wires it",
	"cdn.NodeConfig.Captcha": "rule b: collaborator (the CAPTCHA service); cdn.NewNetwork wires it",

	// The simulated CDN runs the fleet at one speed; a deployment over a
	// real transport scales these to its network (see the fleet package
	// doc), and internal/fleet's and internal/chaos's tests step them.
	"fleet.Config.RetryBackoff":        "rule b: network timing a transport deployment sets",
	"fleet.Config.MaxBackoff":          "rule b: network timing a transport deployment sets",
	"fleet.Config.SendPatience":        "rule b: network timing a transport deployment sets",
	"fleet.Config.HeartbeatInterval":   "rule b: network timing a transport deployment sets",
	"fleet.Config.AntiEntropyInterval": "rule b: network timing a transport deployment sets",
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
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

// nonConstant stands for every value an option takes that is not a
// compile-time constant: a flag, a variable, a computed expression.
const nonConstant = "non-constant"

// optionUse is what the module does with one option.
type optionUse struct {
	// set: non-test code outside the field's package assigns it (a
	// composite-literal key, an assignment target, ++/--, &field for a flag),
	// or anything under benchmark/ names it.
	set bool
	// bench: anything under benchmark/ names it.
	bench bool
	// values: the values non-test code outside the field's package, outside
	// examples/ and benchmark/, gives it. A composite literal of its struct
	// counts as the constant it sets, as nonConstant, or as "default" when
	// it omits the field; an assignment counts the same way, and ++/-- or
	// &field count as nonConstant.
	values map[string]bool
}

// varied reports whether the option has two values in use, a non-constant
// one counting as two.
func (u *optionUse) varied() bool {
	return len(u.values) >= 2 || u.values[nonConstant]
}

// scanOptions names the options, the exported fields of the *Config /
// Thresholds / Params structs under internal/, and says what the module
// does with each.
func scanOptions(m *moduleImporter) (map[*types.Var]string, map[*types.Var]*optionUse) {
	options := map[*types.Var]string{}
	uses := map[*types.Var]*optionUse{}
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
					uses[f] = &optionUse{values: map[string]bool{}}
				}
			}
		}
	}

	for path, info := range m.infos {
		if path == "botdetect/benchmark" {
			for _, obj := range info.Uses {
				if u := uses[asVar(obj)]; u != nil {
					u.set, u.bench = true, true
				}
			}
			continue
		}
		counts := !strings.HasPrefix(path, "botdetect/examples/")
		// use records a value given to field f; e is nil for a ++/--, an
		// &field or a compound assignment.
		use := func(f *types.Var, e ast.Expr) {
			u := uses[f]
			if u == nil || f.Pkg().Path() == path {
				return
			}
			u.set = true
			if !counts {
				return
			}
			v := nonConstant
			if e != nil {
				switch tv := info.Types[e]; {
				case tv.Value != nil:
					v = tv.Value.ExactString()
				case tv.IsNil():
					v = "nil"
				}
			}
			u.values[v] = true
		}
		field := func(e ast.Expr) *types.Var {
			switch e := e.(type) {
			case *ast.Ident:
				return asVar(info.Uses[e])
			case *ast.SelectorExpr:
				return asVar(info.Uses[e.Sel])
			}
			return nil
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					given := map[*types.Var]ast.Expr{}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							given[field(kv.Key)] = kv.Value
						} else {
							given[st.Field(i)] = el
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if e, ok := given[f]; ok {
							use(f, e)
						} else if u := uses[f]; u != nil && counts && f.Pkg().Path() != path {
							u.values["default"] = true
						}
					}
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						if f := field(l); f != nil {
							var e ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								e = n.Rhs[i]
							}
							use(f, e)
						}
					}
				case *ast.IncDecStmt:
					if f := field(n.X); f != nil {
						use(f, nil)
					}
				case *ast.UnaryExpr:
					if f := field(n.X); f != nil && n.Op == token.AND {
						use(f, nil)
					}
				}
				return true
			})
		}
	}
	return options, uses
}

// asVar returns obj as a struct field, its generic origin for a field of an
// instantiated type, or nil.
func asVar(obj types.Object) *types.Var {
	v, _ := obj.(*types.Var)
	if v == nil || !v.IsField() {
		return nil
	}
	return v.Origin()
}

// TestEveryOptionHasASetter keeps the settable surface from regrowing: an
// exported field of a *Config / Thresholds / Params struct under internal/
// must be assigned by non-test code outside its declaring package (a cmd/
// flag, an experiments/ arm, cdn wiring an engine) or be named under
// benchmark/; anything else is a constant, or is in wiringOptions with its
// reason — and leaves that list again the day it gains a setter with two
// values in use.
func TestEveryOptionHasASetter(t *testing.T) {
	options, uses := scanOptions(loadModule(t))
	byName := map[string]bool{}
	var unset []string
	for f, name := range options {
		byName[name] = true
		u := uses[f]
		switch _, listed := wiringOptions[name]; {
		case !u.set && !listed:
			unset = append(unset, name)
		case u.set && (u.bench || u.varied()) && listed:
			t.Errorf("wiringOptions lists %s, which benchmark/ now names or non-test code outside its package sets to two values; drop the entry with its reason", name)
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

// TestEveryOptionHasTwoValues keeps options that nobody turns from
// regrowing: an option must be given two values by non-test code outside
// its package, examples/ aside (a flag or any other non-constant value
// counts as two, a literal that omits it as "default"). One constant, or
// the default alone, is a constant in disguise: make it one. Options named
// under benchmark/ are exempt until the benchmark stops naming them, and
// are logged; so are those in wiringOptions.
func TestEveryOptionHasTwoValues(t *testing.T) {
	options, uses := scanOptions(loadModule(t))
	var fixed, benchHeld []string
	for f, name := range options {
		u := uses[f]
		if _, listed := wiringOptions[name]; listed || u.varied() {
			continue
		}
		vals := make([]string, 0, len(u.values))
		for v := range u.values {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		entry := name + " [" + strings.Join(vals, ", ") + "]"
		if u.bench {
			benchHeld = append(benchHeld, entry)
		} else {
			fixed = append(fixed, entry)
		}
	}
	sort.Strings(fixed)
	sort.Strings(benchHeld)
	t.Logf("%d options with fewer than two values in use are named under benchmark/: %s", len(benchHeld), strings.Join(benchHeld, "; "))
	for _, entry := range fixed {
		t.Errorf("%s: fewer than two values in use outside its package and examples/; make it a constant, or add it to wiringOptions with its reason", entry)
	}
}
