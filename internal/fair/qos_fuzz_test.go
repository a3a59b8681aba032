package fair

import (
	"strings"
	"testing"
)

// FuzzParseClasses: the class list is outside input (aidserve -classes), so
// the parser must never panic, and what it accepts is what its comment
// promises: at least one class, names non-empty, trimmed and unique, weights
// positive. Whatever weight it accepts, WRR gives that class a burst at
// least as long as a weight-1 peer's.
func FuzzParseClasses(f *testing.F) {
	for _, seed := range []string{
		"gold:8,silver:4,bronze:1", "std", " gold : 8 , std ", "a:1,a:2", "a,a", ":3", "a:", "a:0", "a:-1",
		"a:+1", "a:1:2", "a:9223372036854775807", "a:9223372036854775808", "a:1e3", "", " ", ",", "a,,b", "a:\u0663",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		classes, err := ParseClasses(text)
		if err != nil {
			if classes != nil {
				t.Fatalf("ParseClasses(%q) failed (%v) but returned %+v", text, err, classes)
			}
			return
		}
		if len(classes) == 0 {
			t.Fatalf("ParseClasses(%q) accepted an empty list", text)
		}
		seen := map[string]bool{}
		for _, c := range classes {
			if c.Name == "" || c.Name != strings.TrimSpace(c.Name) || seen[c.Name] || c.Weight <= 0 {
				t.Fatalf("ParseClasses(%q) = %+v: class %+v is unnamed, untrimmed, repeated or without a positive weight", text, classes, c)
			}
			seen[c.Name] = true
			p := NewWeightedRoundRobin(0)
			cs := []Candidate{{ID: 1, Weight: c.Weight}, {ID: 2, Weight: 1}}
			_, heavy := p.Pick(0, cs)
			_, peer := p.Pick(0, cs)
			if heavy < peer {
				t.Fatalf("ParseClasses(%q): class %+v gets a WRR burst of %d, below its weight-1 peer's %d", text, c, heavy, peer)
			}
		}
	})
}
