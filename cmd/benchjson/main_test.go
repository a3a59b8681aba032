package main

import (
	"strings"
	"testing"
)

// TestParseStripsProcsSuffix pins the host independence of captured names:
// the -GOMAXPROCS suffix goes when the whole capture shares it (the rows then
// match a baseline captured on a host with another CPU count), stays when a
// -cpu list makes it the only difference between rows, and a capture taken
// at GOMAXPROCS=1, which has none, passes through.
func TestParseStripsProcsSuffix(t *testing.T) {
	cases := []struct {
		name, text string
		want       []string
	}{
		{"uniform",
			"BenchmarkHotPath/claim=cas/threads=8-2 \t 100 \t 15.1 ns/op \t 0 B/op \t 0 allocs/op\n" +
				"ok  \trepro/internal/pool\t0.1s\n" +
				"BenchmarkHotPath/sched=aid-hybrid/chunk=1-2 \t 100 \t 104 ns/op\n",
			[]string{"BenchmarkHotPath/claim=cas/threads=8", "BenchmarkHotPath/sched=aid-hybrid/chunk=1"}},
		{"cpu-list",
			"BenchmarkX-1 \t 100 \t 10 ns/op\nBenchmarkX-2 \t 100 \t 6 ns/op\n",
			[]string{"BenchmarkX-1", "BenchmarkX-2"}},
		{"one-proc",
			"BenchmarkHotPath/sched=aid-hybrid/chunk=1 \t 100 \t 104 ns/op\nBenchmarkZoo/A \t 1 \t 5 ns/op\n",
			[]string{"BenchmarkHotPath/sched=aid-hybrid/chunk=1", "BenchmarkZoo/A"}},
	}
	for _, c := range cases {
		got, err := parse(strings.NewReader(c.text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: parsed %d rows, want %d", c.name, len(got), len(c.want))
		}
		for i, r := range got {
			if r.Name != c.want[i] {
				t.Errorf("%s: row %d named %q, want %q", c.name, i, r.Name, c.want[i])
			}
		}
	}
}
