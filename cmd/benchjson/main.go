// benchjson converts `go test -bench` text output into a machine-readable
// JSON document, and validates such documents — the CI glue that turns the
// bench-short smoke run into a committed, diffable artifact
// (BENCH_multiloop.json).
//
// Usage:
//
//	go test -bench=. ./... > bench.txt
//	benchjson bench.txt                 # JSON to stdout
//	benchjson -o BENCH.json bench.txt   # write to file
//	benchjson -check BENCH.json         # validate: parses and is non-empty
//
//	benchjson -check NEW.json -baseline OLD.json
//	  # additionally diff against a committed baseline: fail when any
//	  # benchmark present in both files regressed its allocs/op — the
//	  # allocation trajectory is only allowed to go down
//
// With no file argument the benchmark text is read from stdin. The parser
// accepts the standard line format
//
//	BenchmarkName/sub=1-8   	 123	 456 ns/op	 789 B/op	 2 allocs/op
//
// keeping every value/unit pair (including the -benchmem B/op and allocs/op
// columns and custom b.ReportMetric units such as iters/s); non-benchmark
// lines are ignored. The -GOMAXPROCS suffix go test appends to names (absent
// when GOMAXPROCS is 1) is dropped when every line carries the same one, so
// the rows of a capture — and the -baseline diff — do not depend on how many
// CPUs the capturing host had.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line: the name (see stripProcs for its -cpu
// suffix), the run count, and every reported metric keyed by unit.
type Result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	check := flag.String("check", "", "validate an existing JSON file and exit")
	baseline := flag.String("baseline", "", "with -check: fail if allocs/op regressed versus this baseline JSON")
	flag.Parse()

	if *baseline != "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -baseline requires -check")
		os.Exit(2)
	}
	if *check != "" {
		err := checkFile(*check)
		if err == nil && *baseline != "" {
			err = checkBaseline(*check, *baseline)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	results, err := parse(in)
	if err == nil && len(results) == 0 {
		err = fmt.Errorf("no benchmark lines found")
	}
	if err == nil {
		err = emit(results, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse extracts benchmark result lines from go test -bench output.
func parse(r io.Reader) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, run count, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if ok {
			results = append(results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stripProcs(results)
	return results, nil
}

// stripProcs removes the "-<GOMAXPROCS>" suffix from the names when all of
// them end in the same one. A capture taken with a -cpu list has differing
// suffixes, which distinguish its rows, and keeps them.
func stripProcs(results []Result) {
	suffix := ""
	for i, r := range results {
		dash := strings.LastIndexByte(r.Name, '-')
		if dash < 0 {
			return
		}
		if _, err := strconv.ParseUint(r.Name[dash+1:], 10, 32); err != nil {
			return
		}
		if i == 0 {
			suffix = r.Name[dash:]
		} else if r.Name[dash:] != suffix {
			return
		}
	}
	for i := range results {
		results[i].Name = strings.TrimSuffix(results[i].Name, suffix)
	}
}

func emit(results []Result, path string) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkFile validates that path holds a non-empty benchjson document whose
// entries all carry a name and at least one metric.
func checkFile(path string) error {
	_, err := loadResults(path)
	return err
}

func loadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries", path)
	}
	for i, r := range results {
		if r.Name == "" {
			return nil, fmt.Errorf("%s: entry %d has no name", path, i)
		}
		if len(r.Metrics) == 0 {
			return nil, fmt.Errorf("%s: entry %q has no metrics", path, r.Name)
		}
	}
	return results, nil
}

// checkBaseline diffs the allocs/op columns of two benchjson documents and
// fails on any regression: a benchmark present in both files must not report
// more allocs/op than the committed baseline. Benchmarks present in only one
// file are ignored (suites may gain or lose rows), as are entries without an
// allocs/op metric (runs taken without -benchmem carry no allocation data to
// compare). Allocation counts are deterministic, so the comparison is exact
// — there is no noise tolerance to tune.
func checkBaseline(newPath, basePath string) error {
	nres, err := loadResults(newPath)
	if err != nil {
		return err
	}
	bres, err := loadResults(basePath)
	if err != nil {
		return err
	}
	base := make(map[string]float64, len(bres))
	for _, r := range bres {
		if a, ok := r.Metrics["allocs/op"]; ok {
			base[r.Name] = a
		}
	}
	var regressions []string
	compared := 0
	for _, r := range nres {
		a, ok := r.Metrics["allocs/op"]
		if !ok {
			continue
		}
		old, ok := base[r.Name]
		if !ok {
			continue
		}
		compared++
		if a > old {
			regressions = append(regressions,
				fmt.Sprintf("  %s: %g allocs/op (baseline %g)", r.Name, a, old))
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s vs %s: no common benchmarks with allocs/op to compare", newPath, basePath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%s: allocs/op regressed versus %s:\n%s",
			newPath, basePath, strings.Join(regressions, "\n"))
	}
	return nil
}
