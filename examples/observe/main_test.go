package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunCountsEveryIteration: each loop's counter snapshot, which its
// barrier release publishes, counts exactly the loop's trip count, and the
// fleet's scrape after the run counts their sum, 402 000. The chunk, steal
// and time columns are wall-clock and are not checked.
func TestRunCountsEveryIteration(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	_, table, ok := strings.Cut(text, "per-loop counters:\n")
	if !ok {
		t.Fatalf("no per-loop counters in:\n%s", text)
	}
	rows := strings.Split(table, "\n")[1:4] // past the header
	for i, want := range []struct {
		name  string
		iters int64
	}{{"batch-a", 200_000}, {"batch-b", 200_000}, {"interactive", 2_000}} {
		var name string
		var chunks, iters int64
		if _, err := fmt.Sscanf(rows[i], "%s %d %d", &name, &chunks, &iters); err != nil {
			t.Fatalf("%q: %v", rows[i], err)
		}
		if name != want.name || iters != want.iters {
			t.Errorf("row %q: loop %s counted %d iterations, want %s with %d", rows[i], name, iters, want.name, want.iters)
		}
	}
	if !strings.Contains(text, "\n  aid_iters_total 402000\n") {
		t.Errorf("the fleet scrape does not count 402000 iterations:\n%s", text)
	}
}
