package botdetect

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// callerlessExports are the exported names under internal/ that survive
// without a non-test reference the scan can see: each is reached in a way
// the scan cannot follow (an interface declared inline, reflection). Every
// entry says which. None does today.
var callerlessExports = map[string]string{}

// TestEveryExportHasACaller keeps the API from regrowing wrappers only tests
// call: every exported func, method, type, const and var declared in a
// non-test file under internal/ must be referenced by non-test code somewhere
// in the module, or by anything under benchmark/ (its tests included, as in
// the options guard). A method's receiver is not a use of its type; a use of
// an instantiated generic method counts for the generic one. A method that
// satisfies error or an interface declared in the module or in a package it
// imports is exempt: the call goes through the interface. Anything else is
// deleted, moved into a _test.go file, or listed in callerlessExports with
// its reason — and leaves that list again the day it gains a caller.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)

	// The interfaces a method can be called through.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	viaInterface := func(fn *types.Func, recv types.Type) bool {
		if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	// The exports: package-level names under internal/ and the exported
	// methods of the concrete types declared there.
	exports := map[types.Object]string{}
	for path, p := range m.pkgs {
		pkg, ok := strings.CutPrefix(path, "botdetect/internal/")
		if !ok {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exports[obj] = pkg + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && !viaInterface(fn, named) {
					exports[fn] = pkg + "." + name + "." + fn.Name()
				}
			}
		}
	}

	// The callers: every use in non-test code and under benchmark/, bar a
	// method's receiver naming its own type. An instantiated generic
	// method or type counts as a use of its origin.
	used := map[types.Object]bool{}
	for path, info := range m.infos {
		recv := map[*ast.Ident]bool{}
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range info.Uses {
			if recv[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}

	var unused []string
	byName := map[string]bool{}
	for obj, name := range exports {
		byName[name] = true
		_, allowed := callerlessExports[name]
		switch {
		case !used[obj] && !allowed:
			unused = append(unused, name+" ("+m.fset.Position(obj.Pos()).String()+")")
		case used[obj] && allowed:
			t.Errorf("callerlessExports lists %s, which non-test code now uses; drop the entry with its reason", name)
		}
	}
	sort.Strings(unused)
	t.Logf("%d exported names under internal/, %d of them in callerlessExports", len(exports), len(callerlessExports))
	for _, name := range unused {
		t.Errorf("%s: only tests use it; delete it, move it into a _test.go file, or add it to callerlessExports with its reason", name)
	}
	for name, why := range callerlessExports {
		if !byName[name] {
			t.Errorf("callerlessExports lists %s, which is not an exported name under internal/ any more", name)
		}
		if why == "" {
			t.Errorf("callerlessExports[%s] carries no reason", name)
		}
	}
}
