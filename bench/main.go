// Command bench is the repository's benchmark: five workloads over the AID
// runtime, each reporting the same end-to-end metrics, plus a separate traced
// pass that reports per-layer metrics and records spans. See README.md.
//
//	go run ./bench -workload fine_chunk -seed 1 -seconds 20 -trace 0
//	go run ./bench -seed 1 [-trace 1]          every workload, one result file
//	go run ./bench -compare old/ new/          verdict per metric and workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fleetProcs is the GOMAXPROCS every run uses beyond one per CPU (those go
// to keepAwake's spinners): two fleet workers, the open-loop generator, and
// one P for completion waiters and the collector. With fewer Ps than runnable
// goroutines a waiter or the generator can sit behind a busy worker for a
// 10 ms preemption tick, which would be measured as latency.
const fleetProcs = 4

// runCfg is what one workload run is asked to do.
type runCfg struct {
	dir     string // the benchmark's directory (the platform file)
	outDir  string // where the result file and the spans go
	seed    uint64
	seconds float64
	smoke   bool
	tr      *tracer // non-nil in the traced pass, and only there
}

// timeSetups sets up as often as a run does to report a median set-up time,
// each time from a collected heap, and returns the times in seconds. discard
// undoes the previous set-up before the next; the caller keeps the last.
func timeSetups(cfg runCfg, setup func() error, discard func()) ([]float64, error) {
	reps := 15
	if cfg.smoke {
		reps = 2
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// outcome is what one workload run found.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	notes             []string
	// suspect, when set, says why the run's numbers should not be trusted
	// although every output check passed.
	suspect string
}

// workload is one entry of the benchmark's table.
type workload struct {
	name string
	run  func(runCfg) (outcome, error)
}

var workloadTable = []workload{
	{fineChunk.name, fineChunk.run},
	{coarseChunk.name, coarseChunk.run},
	{serveLo.name, serveLo.run},
	{serveHi.name, serveHi.run},
	{"sim_figures", runSimFigures},
}

// warmHost keeps both CPUs busy for a moment before anything is timed. A
// process that starts on an idle virtual machine runs its first half second
// noticeably slower (the first loops of a run took up to twice as long as
// later ones), and set-up is the first thing a run times.
func warmHost(smoke bool) {
	d := 400 * time.Millisecond
	if smoke {
		d = 10 * time.Millisecond
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for start := time.Now(); time.Since(start) < d; {
				x = spin(x, 10000)
			}
			sink.Store(x)
		}()
	}
	wg.Wait()
}

// sink keeps warmHost's arithmetic from being optimized away.
var sink atomic.Uint64

// allocBytes reads the cumulative allocation counter.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runRecord is one workload run in a result file.
type runRecord struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Suspect   string    `json:"suspect,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// resultFile is what one invocation writes.
type resultFile struct {
	Schema     int         `json:"schema"`
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go"`
	Commit     string      `json:"commit"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Smoke      bool        `json:"smoke,omitempty"`
	Runs       []runRecord `json:"runs"`
}

// commitID names the source the numbers belong to: the VCS stamp of the
// build when there is one, else what git says, else "unknown" (the driver's
// checkouts are not repositories).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil { // never look above the checkout
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// runOne executes one workload pass and turns it into a record. In the
// traced pass the spans are written next to the results.
func runOne(w workload, cfg runCfg, traced bool) (runRecord, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
		cfg.tr = newTracer()
	}
	warmHost(cfg.smoke)
	runtime.GC()
	out, err := w.run(cfg)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for name := range out.metrics {
		if !defined(defs, name) {
			return runRecord{}, fmt.Errorf("%s: reports undeclared metric %q", w.name, name)
		}
	}
	rec := runRecord{
		Workload:  w.name,
		Trace:     traced,
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Suspect:   out.suspect,
		Notes:     out.notes,
		Metrics:   complete(out.metrics, defs),
	}
	if traced {
		for name, tot := range selfTimes(cfg.tr.spans) {
			rec.Notes = append(rec.Notes, fmt.Sprintf("span %-14s count %6d total %10.3f ms self %10.3f ms",
				name, tot.Count, float64(tot.TotalNs)/1e6, float64(tot.SelfNs)/1e6))
		}
		sort.Strings(rec.Notes)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return rec, err
		}
		if err := cfg.tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// printRecord lists every metric of a run by name with its unit.
func printRecord(w io.Writer, rec runRecord, defs []metricDef) {
	pass := "untraced"
	if rec.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d (failed_frac %.6f), correct %v\n",
		rec.Workload, pass, rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)), rec.Correct)
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
			if m.Q1 != 0 || m.Q3 != 0 {
				line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
			}
		}
		fmt.Fprintln(w, line)
	}
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "  # %s\n", note)
	}
	if rec.Suspect != "" {
		fmt.Fprintf(w, "  ! suspect: %s\n", rec.Suspect)
	}
	if rec.Trace {
		m := rec.Metrics
		fmt.Fprintf(w, "  ladder: rt.chunk_ns %.1f = pool.claim_ns.strict %.1f + core.self_ns.dyn1 %.1f + rt.self_ns %.1f + bench.body_ns.fine %.1f + residual %.1f\n",
			m["rt.chunk_ns"].Value, m["pool.claim_ns.strict"].Value, m["core.self_ns.dyn1"].Value,
			m["rt.self_ns"].Value, m["bench.body_ns.fine"].Value, m["rt.ladder_residual_ns"].Value)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
func driverLine(rec runRecord) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(rec.Metrics))
	for name, m := range rec.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

func writeResult(path string, res resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var res resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != 1 {
		return res, fmt.Errorf("%s: result schema %d, want 1", path, res.Schema)
	}
	return res, nil
}

var errFailedChecks = errors.New("output checks failed")

// run is main without the exit: args are the command line, stdout receives
// the report (and, for a single workload, the driver's line last).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all of them)")
		seed    = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 20, "nominal length of the measured section per workload")
		trace   = fs.Int("trace", 0, "0: the untraced pass (end-to-end metrics); 1: the traced pass (per-layer metrics, spans); with no -workload, 1 runs both")
		smoke   = fs.Bool("smoke", false, "toy sizes: checks the harness, measures nothing")
		compare = fs.Bool("compare", false, "compare two result sets (files or directories): -compare OLD NEW")
		dir     = fs.String("dir", "bench", "the benchmark's directory")
		outPath = fs.String("out", "", "result file (default <dir>/out/result-<workload>-seed<seed>[-traced].json); spans go next to it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files or directories")
		}
		return compareSets(stdout, filepath.Join(*dir, "..", "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}

	procs := fleetProcs + runtime.NumCPU()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	res := resultFile{
		Schema: 1, NProc: runtime.NumCPU(), GoMaxProcs: procs, GoVersion: runtime.Version(),
		Commit: commitID(), Seed: *seed, Seconds: *seconds, Smoke: *smoke,
	}
	label := "all"
	if *name != "" {
		label = *name
	}
	path := *outPath
	if path == "" {
		suffix := ""
		if *trace == 1 {
			suffix = "-traced"
		}
		path = filepath.Join(*dir, "out", fmt.Sprintf("result-%s-seed%d%s.json", label, *seed, suffix))
	}
	cfg := runCfg{dir: *dir, outDir: filepath.Dir(path), seed: *seed, seconds: *seconds, smoke: *smoke}

	var todo []workload
	passes := []bool{*trace == 1}
	for _, w := range workloadTable {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *name == "" && *trace == 1 {
		passes = []bool{false, true}
	}
	for _, traced := range passes {
		for _, w := range todo {
			rec, err := runOne(w, cfg, traced)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, rec)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			printRecord(stdout, rec, defs)
		}
	}
	if err := writeResult(path, res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result file: %s\n", path)
	failed := false
	for _, rec := range res.Runs {
		failed = failed || !rec.Correct
	}
	if *name != "" {
		fmt.Fprintln(stdout, driverLine(res.Runs[0]))
	}
	if failed {
		return errFailedChecks
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
