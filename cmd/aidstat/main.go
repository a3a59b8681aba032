// aidstat is the offline analyzer of the flight-recorder subsystem: it
// reads a serialized run record (the JSONL produced by aidtrace -record,
// aidserve -record or the Recorder API) and reports how the run actually
// behaved — per-thread utilization with a Gantt strip, the load-imbalance
// figure (100·(max − min)/max of the threads' busy times, the number
// aidtrace -diff and the trace footers print), the steal matrix bucketed by
// topology tier, and each loop's phase transitions and SF trajectory. It can
// also convert records for interactive inspection in chrome://tracing or
// Perfetto.
//
// Usage:
//
//	aidstat run.jsonl                         # text report to stdout
//	aidstat -export chrome -o out.json run.jsonl
//	                                          # Chrome trace-event JSON
//
// The chrome export is byte-deterministic for a given record, so exported
// artifacts diff cleanly across runs of the tool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aidstat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aidstat", flag.ContinueOnError)
	export := fs.String("export", "", `export format instead of the text report: "chrome"`)
	out := fs.String("o", "", "output file for -export (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: aidstat [-export chrome [-o out.json]] record.jsonl")
	}
	rec, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	switch *export {
	case "":
		a, err := obs.Analyze(rec)
		if err != nil {
			return err
		}
		return obs.WriteReport(stdout, rec, a)
	case "chrome":
		w := stdout
		if *out != "" {
			of, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer of.Close()
			w = of
		}
		return obs.ExportChrome(w, rec)
	default:
		return fmt.Errorf("unknown export format %q (supported: chrome)", *export)
	}
}
