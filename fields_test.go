package botdetect

import (
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeOnlyFields are the exported struct fields under internal/ that
// survive without a read the scan can see: each is read in a way the scan
// cannot follow (a test seam, a struct printed whole). Every entry says
// which.
var writeOnlyFields = map[string]string{
	"htmlmod.RewriteResult.InjectedCSS":      injectedSeam,
	"htmlmod.RewriteResult.InjectedScript":   injectedSeam,
	"htmlmod.RewriteResult.InjectedHandlers": injectedSeam,
	"htmlmod.RewriteResult.InjectedInline":   injectedSeam,
	"htmlmod.RewriteResult.InjectedHidden":   injectedSeam,
	"htmlmod.PageSummary.BodyMouseHandler": "test seam: how a client-side test sees an instrumented page " +
		"(proxy's TestHTMLRewrittenOnTheWayOut, TestKeepAliveConnectionReuse, core's TestInstrumentPageInjectsEverything)",
	"fleet.Counters.StaleInc": "test seam: fleet's TestIncarnationReset and chaos's TestFleetSimulationSeeds count the fenced updates",

	"policy.Stats.Evaluations":  policyStatsPrinted,
	"policy.Stats.Allowed":      policyStatsPrinted,
	"policy.Stats.Challenged":   policyStatsPrinted,
	"policy.Stats.Throttled":    policyStatsPrinted,
	"policy.Stats.Blocked":      policyStatsPrinted,
	"policy.Stats.RemoteBlocks": policyStatsPrinted,
	"policy.Stats.Unblocked":    policyStatsPrinted,
	"policy.Stats.DeEscalated":  policyStatsPrinted,
}

const (
	injectedSeam = "test seam: core's TestLitePagesForDefiniteHumans tells a full page from a lite one by it, " +
		"htmlmod's TestRewriteInjectsEverything checks it beside each fragment"
	policyStatsPrinted = "read whole: examples/proxy-gateway prints policy.Stats with %+v"
)

// TestEveryFieldHasAReader keeps state nobody reads from regrowing: every
// exported, non-blank field of a struct type declared under internal/,
// outside a test-support package, must be read by non-test code somewhere
// in the module, examples/ and benchmark/ (its tests included, as in the
// options guard) among it. A use is a read unless it is an assignment
// target, a composite-literal key or a ++/-- operand. Embedded fields and
// structs with json tags (read by encoding/json) are exempt. Anything else
// is deleted, or listed in writeOnlyFields with its reason — and leaves
// that list again the day it gains a reader.
func TestEveryFieldHasAReader(t *testing.T) {
	m := loadModule(t)

	fields := map[*types.Var]string{}
	for path, p := range m.pkgs {
		pkg, ok := strings.CutPrefix(path, "botdetect/internal/")
		if !ok || strings.HasSuffix(p.Name(), "test") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || hasJSONTag(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = pkg + "." + name + "." + f.Name()
				}
			}
		}
	}

	read := map[*types.Var]bool{}
	for path, info := range m.infos {
		written := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.Ident:
				written[e] = true
			case *ast.SelectorExpr:
				written[e.Sel] = true
			}
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					target(n.Key)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						target(l)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if v := asVar(obj); v != nil && !written[id] {
				read[v] = true
			}
		}
	}

	var unread []string
	byName := map[string]bool{}
	for f, name := range fields {
		byName[name] = true
		_, allowed := writeOnlyFields[name]
		switch {
		case !read[f] && !allowed:
			unread = append(unread, name+" ("+m.fset.Position(f.Pos()).String()+")")
		case read[f] && allowed:
			t.Errorf("writeOnlyFields lists %s, which non-test code now reads; drop the entry with its reason", name)
		}
	}
	sort.Strings(unread)
	t.Logf("%d exported struct fields under internal/, %d of them in writeOnlyFields", len(fields), len(writeOnlyFields))
	for _, name := range unread {
		t.Errorf("%s: no non-test code reads it; delete it, or add it to writeOnlyFields with its reason", name)
	}
	for name, why := range writeOnlyFields {
		if !byName[name] {
			t.Errorf("writeOnlyFields lists %s, which is not an exported struct field any more", name)
		}
		if why == "" {
			t.Errorf("writeOnlyFields[%s] carries no reason", name)
		}
	}
}

// hasJSONTag reports whether any field of st carries a json tag.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}
