// Package rules holds the tree's structural rules as a tier-1 test: what no
// non-test Go file of a part of the tree may do, checked on the parsed files
// (go/parser, go/ast), so that a comment or a string spelling a forbidden
// construct does not match and a renamed import does not hide one.
package rules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// root is the module's root, seen from this package's directory.
const root = "../.."

// A rule forbids a construct in the non-test Go files of some directories
// (each directory alone, not the ones below it). check reports every
// offending node of one parsed file. bad holds files that break the rule and
// good files that spell the construct only where the rule does not look, so
// that the check is seen to fire, and to fire on code only.
type rule struct {
	name, reason string
	dirs         []string
	check        func(f *ast.File, report func(n ast.Node, what string))
	bad, good    []string
}

var rules = []rule{{
	name: "the engines build no chunk event and name no obs.Batch",
	reason: "a grant is accounted once, in obs.Ledger: an engine hands the grant " +
		"to its worker's lane, and the lane alone builds the trace.ChunkEvent",
	dirs: []string{"internal/rt", "internal/sim"},
	check: func(f *ast.File, report func(ast.Node, string)) {
		tr, ob := importName(f, "repro/internal/trace"), importName(f, "repro/internal/obs")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if names(element(n.Type), tr, "ChunkEvent") {
					report(n, "builds a trace.ChunkEvent")
				}
			case *ast.SelectorExpr:
				if names(n, ob, "Batch") {
					report(n, "names obs.Batch")
				}
			}
			return true
		})
	},
	bad: []string{
		`package p; import "repro/internal/trace"; var e = trace.ChunkEvent{Tid: 1}`,
		`package p; import t "repro/internal/trace"; var e = &t.ChunkEvent{}`,
		`package p; import "repro/internal/trace"; var es = []trace.ChunkEvent{{Lo: 1}}`,
		`package p; import "repro/internal/trace"; var es = map[int]*trace.ChunkEvent{0: {}}`,
		`package p; import . "repro/internal/trace"; var e = ChunkEvent{}`,
		`package p; import "repro/internal/obs"; var b obs.Batch`,
	},
	good: []string{
		`package p; import "repro/internal/trace"; var es = make([]trace.ChunkEvent, 0) // not trace.ChunkEvent{}`,
		`package p; var s = "trace.ChunkEvent{} and obs.Batch"`,
		`package p; import trace "repro/internal/other"; var e = trace.ChunkEvent{}`,
	},
}, {
	name: "the engines call no fairness policy themselves",
	reason: "runnable loops, retirements, candidates, picks and barrier release live in one " +
		"fair.Fleet, which rt.Registry and the simulator's event loop both drive",
	dirs: []string{"internal/rt", "internal/sim"},
	check: func(f *ast.File, report func(ast.Node, string)) {
		fa := importName(f, "repro/internal/fair")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pick" {
					report(n, "calls a Pick method")
				}
			case *ast.SelectorExpr:
				if names(n, fa, "Retirer") {
					report(n, "names fair.Retirer")
				}
			}
			return true
		})
	},
	bad: []string{
		`package p; func f(p interface{ Pick(int) int }) int { return p.Pick(0) }`,
		`package p; type r struct{ policy interface{ Pick() } }; func (x r) f() { x.policy.Pick() }`,
		`package p; import "repro/internal/fair"; func f(p fair.Policy) bool { _, ok := p.(fair.Retirer); return ok }`,
		`package p; import f "repro/internal/fair"; var _ f.Retirer`,
	},
	good: []string{
		`package p; import "repro/internal/fair"; func f(fl *fair.Fleet) { fl.Grant(0) } // not policy.Pick(0)`,
		`package p; var s = "p.Pick(0) and fair.Retirer"`,
		`package p; func Pick() int { return 0 }; var x = Pick()`,
		`package p; import fair "repro/internal/other"; var _ fair.Retirer`,
	},
}}

// importName is the name under which f imports path: its last element unless
// the import renames it, "." for a dot import, "" when f does not import it.
func importName(f *ast.File, path string) string {
	for _, spec := range f.Imports {
		if p, err := strconv.Unquote(spec.Path.Value); err != nil || p != path {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// element strips the slice, array, map and pointer types around a composite
// literal's element type, whose literals a composite literal may hold with
// their type elided.
func element(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.ArrayType:
			e = t.Elt
		case *ast.MapType:
			e = t.Value
		case *ast.StarExpr:
			e = t.X
		default:
			return e
		}
	}
}

// names reports whether e is the exported name name of the package imported
// as pkg: pkg.name, or name alone under a dot import.
func names(e ast.Expr, pkg, name string) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && pkg != "" && pkg != "." && x.Name == pkg && e.Sel.Name == name
	case *ast.Ident:
		return pkg == "." && e.Name == name
	}
	return false
}

// violations parses src as file name and returns what r reports in it.
func violations(t *testing.T, r rule, fset *token.FileSet, name string, src any) []string {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	r.check(f, func(n ast.Node, what string) { out = append(out, fset.Position(n.Pos()).String()+": "+what) })
	return out
}

// TestTreeRules checks every rule against the tree, and against its own
// breaking and passing examples.
func TestTreeRules(t *testing.T) {
	fset := token.NewFileSet()
	for _, r := range rules {
		for _, src := range r.bad {
			if len(violations(t, r, fset, "bad.go", src)) == 0 {
				t.Errorf("rule %q misses a break:\n%s", r.name, src)
			}
		}
		for _, src := range r.good {
			if v := violations(t, r, fset, "good.go", src); len(v) != 0 {
				t.Errorf("rule %q fires on %s:\n%s", r.name, v, src)
			}
		}
		for _, dir := range r.dirs {
			files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, path := range files {
				if strings.HasSuffix(path, "_test.go") {
					continue
				}
				checked++
				for _, v := range violations(t, r, fset, path, nil) {
					t.Errorf("%s: breaks the rule %q: %s", v, r.name, r.reason)
				}
			}
			if checked == 0 {
				t.Errorf("rule %q checks %s, which holds no Go file", r.name, dir)
			}
		}
	}
}
