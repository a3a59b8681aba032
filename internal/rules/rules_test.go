// Package rules holds the tree's structural rules as a tier-1 test: what no
// Go file of a part of the tree may do, checked on the parsed files
// (go/parser, go/ast), so that a renamed or dot import does not hide a
// forbidden construct.
//
// One walk of the module parses every Go file it finds, skipping what the go
// tool skips: directories and files whose names start with "." or "_", and
// testdata directories (so the archived copy of a revision under
// .bench_build/ is not read). A row selects the files it reads by their
// path from the module root, by whether they are _test.go files, and by the
// import graph of the module's packages, built once from the import specs of
// the non-test files. That graph holds every build-tag variant of a package,
// so an import closure read from it is a superset of what go list reports on
// one platform.
//
// A row reads code: identifiers, literals and the shape of expressions.
// Only the row on retired names also reads comments, because that rule is
// about the words the tree uses, help text and comments included; every
// other row ignores a comment that spells a forbidden construct.
package rules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// root is the module's root, seen from this package's directory.
const root = "../.."

// module is the module path of go.mod, the prefix of every package's import
// path.
const module = "repro"

// A source is one parsed Go file of the module.
type source struct {
	path string // slash-separated, relative to the module root
	test bool   // a _test.go file
	file *ast.File
}

// pkg is the import path of the package in s's directory.
func (s source) pkg() string {
	if dir := path.Dir(s.path); dir != "." {
		return module + "/" + dir
	}
	return module
}

// in reports whether s lies in dir or below it.
func (s source) in(dir string) bool { return strings.HasPrefix(s.path, dir+"/") }

// inDir reports whether s lies in one of dirs itself, not below it.
func (s source) inDir(dirs ...string) bool {
	for _, dir := range dirs {
		if path.Dir(s.path) == dir {
			return true
		}
	}
	return false
}

// A graph maps each package of the module to the import paths its non-test
// files name.
type graph map[string][]string

// closure reports whether package pkg is in the import closure of one of
// roots; a package is in its own.
func (g graph) closure(pkg string, roots ...string) bool {
	seen := map[string]bool{}
	for stack := append([]string(nil), roots...); len(stack) > 0; {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p == pkg {
			return true
		}
		if !seen[p] {
			seen[p] = true
			stack = append(stack, g[p]...)
		}
	}
	return false
}

// A rule forbids a construct in the files it reads. check reports every
// offending node of one parsed file. bad holds files that break the rule and
// good files that spell the construct only where the rule does not look, so
// that the check is seen to fire, and to fire on code only.
type rule struct {
	name, reason string
	reads        func(s source, g graph) bool
	check        func(f *ast.File, report func(n ast.Node, what string))
	bad, good    []string
}

// retired are the names of the retired sf-aware policy, the live SF view a
// policy once read, the SF trajectory a simulated loop's result once carried,
// the retired AID-auto schedule, the second timeline carrier's hand-over
// to a record and its own summary, the registry's second key type for a
// schedule, which is comparable itself, and the per-cluster energy a
// simulated loop's result once carried.
var retired = regexp.MustCompile(`sf-aware|SFAware|SFLiveView|LiveSF|SFTrajectory|SFPoint|AIDAuto|aid-auto|AID-auto|AttachTimeline|SchedOverheadPct|timelineOf|schedKey|ClusterEnergyJ`)

var rules = []rule{{
	name: "the engines build no chunk event and name no obs.Batch",
	reason: "a grant is accounted once, in obs.Ledger: an engine hands the grant " +
		"to its worker's lane, and the lane alone builds the trace.ChunkEvent",
	reads: func(s source, _ graph) bool { return !s.test && s.inDir("internal/rt", "internal/sim") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		tr := importName(f, "repro/internal/trace")
		ast.Inspect(f, func(n ast.Node) bool {
			if n, ok := n.(*ast.CompositeLit); ok && names(element(n.Type), tr, "ChunkEvent") {
				report(n, "builds a trace.ChunkEvent")
			}
			return true
		})
		uses(f, "repro/internal/obs", func(n ast.Node, name string) {
			if name == "Batch" {
				report(n, "names obs.Batch")
			}
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
	reason: "runnable loops, retirements, candidates, picks, a grant's end and barrier release " +
		"live in one fair.Fleet, which rt.Registry and the simulator's event loop both drive",
	reads: func(s source, _ graph) bool { return !s.test && s.inDir("internal/rt", "internal/sim") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			if n, ok := n.(*ast.CallExpr); ok {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pick" {
					report(n, "calls a Pick method")
				}
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Burst" {
				report(sel, "reads a grant's Burst (a grant's end is fair.Fleet.Over's)")
			}
			return true
		})
		uses(f, "repro/internal/fair", func(n ast.Node, name string) {
			if name == "Retirer" {
				report(n, "names fair.Retirer")
			}
		})
	},
	bad: []string{
		`package p; func f(p interface{ Pick(int) int }) int { return p.Pick(0) }`,
		`package p; type r struct{ policy interface{ Pick() } }; func (x r) f() { x.policy.Pick() }`,
		`package p; import "repro/internal/fair"; func f(p fair.Policy) bool { _, ok := p.(fair.Retirer); return ok }`,
		`package p; import f "repro/internal/fair"; var _ f.Retirer`,
		`package p; import "repro/internal/fair"; func f(g fair.Grant, served int) bool { return served >= g.Burst }`,
		`package p; type w struct{ g struct{ Burst int } }; func (x w) f() int { return x.g.Burst - 1 }`,
	},
	good: []string{
		`package p; import "repro/internal/fair"; func f(fl *fair.Fleet) { fl.Grant(0) } // not policy.Pick(0)`,
		`package p; import "repro/internal/fair"; func f(fl *fair.Fleet, g fair.Grant, served int) bool { return fl.Over(g, served) }`,
		`package p; import "repro/internal/fair"; var g = fair.Grant{Slot: 1, Burst: 2}; var s = "g.Burst"`,
		`package p; var s = "p.Pick(0) and fair.Retirer"`,
		`package p; func Pick() int { return 0 }; var x = Pick()`,
		`package p; import fair "repro/internal/other"; var _ fair.Retirer`,
	},
}, {
	name: "no go test benchmark outside bench/",
	reason: "host time is measured in one place, ./bench (BENCHMARK.json), and a " +
		"simulated number belongs in a golden table",
	reads: func(s source, _ graph) bool { return s.test && !s.in("bench") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				report(fn, "declares a benchmark")
			}
		}
	},
	bad: []string{
		`package p; import "testing"; func BenchmarkNext(b *testing.B) {}`,
		`package p; import t "testing"; func Benchmark(b *t.B) {}`,
	},
	good: []string{
		"package p\n/*\nfunc BenchmarkNext(b *testing.B) {}\n*/",
		"package p\nvar s = `\nfunc BenchmarkNext(b *testing.B) {}\n`",
		`package p; type T struct{}; func (T) BenchmarkNext() {}`,
	},
}, {
	name: "no imbalance function and no timeline TimeIn read outside internal/trace",
	reason: "trace.Record.Digest is the one per-thread busy/sched/sync walk and holds " +
		"the one imbalance formula, so every command prints the same numbers",
	reads: func(s source, _ graph) bool { return !s.test && !s.in("internal/trace") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if strings.Contains(n.Name.Name, "mbalance") {
					report(n, "declares an imbalance function")
				}
			case *ast.Ident:
				if strings.HasSuffix(n.Name, "TimeIn") {
					report(n, "names TimeIn")
				}
			}
			return true
		})
	},
	bad: []string{
		`package p; func imbalancePct(busy []int64) float64 { return 0 }`,
		`package p; type d struct{}; func (d) Imbalance() float64 { return 0 }`,
		`package p; type tl struct{}; func (tl) TimeIn(int, int) int64 { return 0 }; func f(t tl) int64 { return t.TimeIn(0, 2) }`,
		`package p; type tl struct{}; func (tl) TimeIn(int, int) int64 { return 0 }; func f(t tl) func(int, int) int64 { return t.TimeIn }`,
	},
	good: []string{
		`package p; // func imbalance(), t.TimeIn(0, s)
		var s = "func Imbalance() and TimeIn("`,
		`package p; type d struct{ ImbalancePct float64 }; func f(x d) float64 { return x.ImbalancePct }`,
	},
}, {
	name: "an AID scheduler takes no lock",
	reason: "every AID phase transition rides the sampler's CAS epoch word " +
		"(§4.2, internal/core/phase.go), so no AID path takes a lock",
	reads: func(s source, _ graph) bool {
		return !s.test && strings.HasPrefix(s.path, "internal/core/aid_") && strings.HasSuffix(s.path, ".go")
	},
	check: func(f *ast.File, report func(ast.Node, string)) {
		uses(f, "sync", func(n ast.Node, name string) {
			if name == "Mutex" || name == "RWMutex" {
				report(n, "names sync."+name)
			}
		})
	},
	bad: []string{
		`package p; import "sync"; var mu sync.Mutex`,
		`package p; import "sync"; type s struct{ sync.RWMutex }`,
		`package p; import s "sync"; var mu s.Mutex`,
		`package p; import . "sync"; var mu Mutex`,
	},
	good: []string{
		`package p; import "sync"; var once sync.Once // not sync.Mutex`,
		`package p; var s = "sync.Mutex"`,
		`package p; import sync "repro/internal/other"; var mu sync.Mutex`,
	},
}, {
	name: "internal/core keeps its spares in no sync.Pool and no sync.Map",
	reason: "a spare the garbage collector empties is a construction the next loop pays " +
		"for, so each key's spares are one list under one mutex (internal/core/schedule.go)",
	reads: func(s source, _ graph) bool { return !s.test && s.in("internal/core") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		uses(f, "sync", func(n ast.Node, name string) {
			if name == "Pool" || name == "Map" {
				report(n, "names sync."+name)
			}
		})
	},
	bad: []string{
		`package p; import "sync"; var spares sync.Map`,
		`package p; import "sync"; type list struct{ pool sync.Pool }`,
		`package p; import s "sync"; var p = &s.Pool{New: func() any { return 0 }}`,
		`package p; import . "sync"; var m Map`,
	},
	good: []string{
		`package p; import "sync"; var mu sync.Mutex; var spares = map[int][]int{} // not sync.Map`,
		`package p; var s = "sync.Pool and sync.Map"`,
		`package p; import sync "repro/internal/other"; var p sync.Pool`,
	},
}, {
	name: "only the sampler completes a phase or scales a sample",
	reason: "sampler.go measures the one sampling phase of the AID machines: it files " +
		"elapsed·1024/n and detects the last measurer of an epoch",
	reads: func(s source, _ graph) bool {
		return !s.test && s.in("internal/core") && s.path != "internal/core/sampler.go"
	},
	check: func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "complete" && strings.HasSuffix(lastName(n.X), "phase") {
					report(n, "completes a phase")
				}
			case *ast.BinaryExpr:
				if p, ok := unparen(n.X).(*ast.BinaryExpr); ok && n.Op == token.QUO && has1024(p) {
					report(n, "divides a product with 1024")
				}
			}
			return true
		})
	},
	bad: []string{
		`package p; func f(s *sampler) bool { return s.phase.complete(0) }`,
		`package p; func f(phase *phaseWord) bool { return (phase).complete(0) }`,
		`package p; func f(x, n int64) int64 { return x * 1024 / n }`,
		`package p; func f(x, n int64) int64 { return 1024 * x / n }`,
		`package p; func f(x, y, n int64) int64 { return (0x400 * x * y) / n }`,
	},
	good: []string{
		`package p; // s.phase.complete(0) and x * 1024 / n
		var s = "phase.complete( and * 1024 /"`,
		`package p; func f(s *sampler) bool { return s.window.complete(0) }`,
		`package p; func f(x, n int64) int64 { return x / 1024 * n + 1024/n }`,
	},
}, {
	name: "internal/rt does not import internal/sim",
	reason: "the goroutine runtime and the simulator share the scheduler code " +
		"(internal/core), not each other's packages",
	reads: func(s source, g graph) bool { return !s.test && g.closure(s.pkg(), "repro/internal/rt") },
	check: importOf("repro/internal/sim"),
	bad: []string{
		`package p; import "repro/internal/sim"`,
		`package p; import s "repro/internal/sim"`,
		`package p; import _ "repro/internal/sim"`,
		`package p; import . "repro/internal/sim"`,
	},
	good: []string{
		`package p; import "repro/internal/simx" // import "repro/internal/sim"
		var s = "repro/internal/sim"`,
	},
}, {
	name: "the simulated side does not import internal/rt",
	reason: "the goroutine runtime and the simulator share the scheduler code " +
		"(internal/core), not each other's packages",
	reads: func(s source, g graph) bool {
		return !s.test && g.closure(s.pkg(), "repro/internal/exps", "repro/internal/replay",
			"repro/cmd/aidsim", "repro/cmd/aidbench", "repro/examples/replay")
	},
	check: importOf("repro/internal/rt"),
	bad: []string{
		`package p; import "repro/internal/rt"`,
		`package p; import r "repro/internal/rt"`,
		`package p; import _ "repro/internal/rt"`,
	},
	good: []string{
		`package p; import "repro/internal/rtx" // import "repro/internal/rt"
		var s = "repro/internal/rt"`,
	},
}, {
	name: "the schedule vocabulary is named through internal/core",
	reason: "core.Schedule, core.ParseSchedule and core.Kind* have one home; " +
		"rt's aliases are kept for bench/ alone",
	reads: func(s source, _ graph) bool { return !s.in("bench") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		uses(f, "repro/internal/rt", func(n ast.Node, name string) {
			if strings.HasPrefix(name, "Schedule") || strings.HasPrefix(name, "ParseSchedule") ||
				strings.HasPrefix(name, "Kind") {
				report(n, "names rt."+name)
			}
		})
	},
	bad: []string{
		`package p; import "repro/internal/rt"; var s rt.Schedule`,
		`package p; import r "repro/internal/rt"; var s, _ = r.ParseSchedule("static")`,
		`package p; import . "repro/internal/rt"; var s, _ = ParseSchedule("static")`,
		`package p; import runtime "repro/internal/rt"; var k = runtime.KindDynamic`,
	},
	good: []string{
		`package p; import "repro/internal/core"; var s core.Schedule // not rt.Schedule
		var t = "rt.ParseSchedule and rt.KindDynamic"`,
		`package p; import rt "repro/internal/other"; var s rt.Schedule`,
		`package p; import . "repro/internal/rt"; import "repro/internal/core"; var s core.Schedule`,
	},
}, {
	name: "no event or phase order outside internal/trace",
	reason: "a record's one event order (trace.EventOrder) and one phase order live in " +
		"internal/trace, which alone orders and merges a captured loop's tapes",
	reads: func(s source, _ graph) bool { return !s.test && !s.in("internal/trace") },
	check: func(f *ast.File, report func(ast.Node, string)) {
		tr := importName(f, "repro/internal/trace")
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft = n.Type
			case *ast.FuncLit:
				ft = n.Type
			default:
				return true
			}
			if kind := orderOf(ft, tr); kind != "" {
				report(n, "orders two trace."+kind+"s")
			}
			return true
		})
	},
	bad: []string{
		`package p; import ("cmp"; "repro/internal/trace"); func order(a, b trace.ChunkEvent) int { return cmp.Compare(a.TimeNs, b.TimeNs) }`,
		`package p; import "repro/internal/trace"; var less = func(a *trace.ChunkEvent, b *trace.ChunkEvent) int { return 0 }`,
		`package p; import t "repro/internal/trace"; type s struct{}; func (s) order(a, b t.PhaseEvent) (n int) { return }`,
		`package p; import . "repro/internal/trace"; func f(evs []ChunkEvent) { _ = func(a, b *ChunkEvent) int { return 0 } }`,
	},
	good: []string{
		`package p; import ("slices"; "repro/internal/trace"); func f(evs []trace.ChunkEvent) { slices.SortFunc(evs, trace.EventOrder) }`,
		`package p; import "repro/internal/trace"; func before(a, b trace.ChunkEvent) bool { return a.TimeNs < b.TimeNs }`,
		`package p; import "repro/internal/trace"; func f(a trace.ChunkEvent, b trace.PhaseEvent) int { return 0 }`,
		`package p; import "repro/internal/trace"; func f(a, b, c trace.ChunkEvent) int { return 0 }`,
		`package p; import "repro/internal/trace"; func f(a, b []trace.ChunkEvent) int { return 0 }`,
		`package p; import trace "repro/internal/other"; func f(a, b trace.ChunkEvent) int { return 0 }`,
		`package p; // func order(a, b trace.ChunkEvent) int
		var s = "func(a, b trace.PhaseEvent) int"`,
	},
}, {
	name: "no retired policy, live SF view, SF trajectory result, AID-auto schedule, second timeline, " +
		"schedule key or per-cluster energy is named",
	reason: "a fairness policy sees a loop's ID and weight only, a run's SF trajectory and " +
		"timeline live in its trace.Record only, the AID-auto schedule is retired, a core.Schedule " +
		"is its own free-list key, and a loop's energy is one number: none is named " +
		"anywhere, help text and comments included",
	reads: func(s source, _ graph) bool { return !s.test },
	check: func(f *ast.File, report func(ast.Node, string)) {
		for _, g := range f.Comments {
			for _, c := range g.List {
				if m := retired.FindString(c.Text); m != "" {
					report(c, "comment names "+m)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if m := retired.FindString(n.Name); m != "" {
					report(n, "names "+m)
				}
			case *ast.BasicLit:
				if m := retired.FindString(n.Value); m != "" {
					report(n, "literal names "+m)
				}
			}
			return true
		})
	},
	bad: []string{
		`package p; type SFAwarePolicy struct{}`,
		`package p; var help = "-policy sf-aware|wrr"`,
		"package p\nvar help = `schedules: aid-auto`",
		`package p; // AID-auto picks a schedule per loop
		var x int`,
		`package p; type v interface{ LiveSF() float64 }`,
		`package p; type LoopResult struct{ SFTrajectory []SFPoint }`,
		`package p; // the result's SFTrajectory lists each SF table
		var x int`,
		`package p; type rec struct{}; func (rec) AttachTimeline(any) {}`,
		`package p; type tr struct{}; func (tr) SchedOverheadPct() float64 { return 0 }`,
		`package p; // timelineOf flattens a trace into the record
		var x int`,
		`package p; type schedKey struct{ chunk int64 }`,
		`package p; // ClusterEnergyJ breaks EnergyJ down by cluster
		var x int`,
	},
	good: []string{
		`package p; var help = "-policy wrr|fcfs" // sf aware, aid auto`,
		`package p; type record struct{ Timeline []int } // a record's timeline`,
		`package p; type freeLoop struct{ key Schedule } // the sched key of a pooled loop`,
		`package p; type LoopResult struct{ EnergyJ float64 } // summed over every cluster's energy`,
	},
}}

// orderOf is "ChunkEvent" or "PhaseEvent" when ft takes exactly two
// parameters of that type of the package imported as tr, values or pointers,
// and returns one int, the shape of a comparison; "" otherwise.
func orderOf(ft *ast.FuncType, tr string) string {
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) > 1 {
		return ""
	}
	if res, ok := ft.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "int" {
		return ""
	}
	var params []ast.Expr
	for _, field := range ft.Params.List {
		for i := 0; i < max(len(field.Names), 1); i++ {
			if star, ok := field.Type.(*ast.StarExpr); ok {
				params = append(params, star.X)
			} else {
				params = append(params, field.Type)
			}
		}
	}
	if len(params) != 2 {
		return ""
	}
	for _, kind := range []string{"ChunkEvent", "PhaseEvent"} {
		if names(params[0], tr, kind) && names(params[1], tr, kind) {
			return kind
		}
	}
	return ""
}

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

// importOf is the check that reports every import of path, under any name.
func importOf(path string) func(f *ast.File, report func(ast.Node, string)) {
	return func(f *ast.File, report func(ast.Node, string)) {
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p == path {
				report(spec, "imports "+path)
			}
		}
	}
}

// uses calls use for every name of the package imported from path that f
// refers to: pkg.Name under the import's name, or Name alone under a dot
// import (any identifier that is not a selector's field or method).
func uses(f *ast.File, path string, use func(n ast.Node, name string)) {
	pkg := importName(f, path)
	if pkg == "" || pkg == "_" {
		return
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && pkg != "." && x.Name == pkg {
				use(n, n.Sel.Name)
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if pkg == "." {
				use(n, n.Name)
			}
		case *ast.ImportSpec:
			return false
		}
		return true
	}
	ast.Inspect(f, visit)
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

// unparen strips the parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// lastName is the last identifier of e: x of x and of a.x, "" otherwise.
func lastName(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// has1024 reports whether e is the integer 1024, in any spelling, or a
// product with it among its factors.
func has1024(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.BasicLit:
		v, err := strconv.ParseInt(e.Value, 0, 64)
		return e.Kind == token.INT && err == nil && v == 1024
	case *ast.BinaryExpr:
		return e.Op == token.MUL && (has1024(e.X) || has1024(e.Y))
	}
	return false
}

// parse parses src as file name, with its comments.
func parse(t *testing.T, fset *token.FileSet, name string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// violations returns what r reports in f.
func violations(r rule, fset *token.FileSet, f *ast.File) []string {
	var out []string
	r.check(f, func(n ast.Node, what string) { out = append(out, fset.Position(n.Pos()).String()+": "+what) })
	return out
}

// parseModule parses every Go file of the module and builds its import
// graph.
func parseModule(t *testing.T, fset *token.FileSet) ([]source, graph) {
	t.Helper()
	var srcs []source
	g := graph{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p == root {
			return nil
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		s := source{path: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), file: parse(t, fset, p, nil)}
		srcs = append(srcs, s)
		if !s.test {
			for _, spec := range s.file.Imports {
				if ip, err := strconv.Unquote(spec.Path.Value); err == nil {
					g[s.pkg()] = append(g[s.pkg()], ip)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs, g
}

// TestTreeRules checks every rule against the tree, and against its own
// breaking and passing examples.
func TestTreeRules(t *testing.T) {
	fset := token.NewFileSet()
	srcs, g := parseModule(t, fset)
	for _, r := range rules {
		for _, src := range r.bad {
			if len(violations(r, fset, parse(t, fset, "bad.go", src))) == 0 {
				t.Errorf("rule %q misses a break:\n%s", r.name, src)
			}
		}
		for _, src := range r.good {
			if v := violations(r, fset, parse(t, fset, "good.go", src)); len(v) != 0 {
				t.Errorf("rule %q fires on %s:\n%s", r.name, v, src)
			}
		}
		checked := 0
		for _, s := range srcs {
			if !r.reads(s, g) {
				continue
			}
			checked++
			for _, v := range violations(r, fset, s.file) {
				t.Errorf("%s: breaks the rule %q: %s", v, r.name, r.reason)
			}
		}
		if checked == 0 {
			t.Errorf("rule %q checks no Go file", r.name)
		}
	}
}
