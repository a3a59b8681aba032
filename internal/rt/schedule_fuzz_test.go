package rt

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzParseSchedule: GOOMP_SCHEDULE text comes from the environment, command
// lines and run records, so the parser must never panic, and whatever it
// accepts must survive the trip through Canonical that records rely on:
// Canonical is never "" for a parsed schedule, and parsing it again selects
// the same schedule. "Same" is equality after WithDefaults — an omitted
// parameter and its default are one schedule ("dynamic" and "dynamic,1"),
// and TestParseSchedule pins that the parser leaves an omitted one zero.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		// Every form in ParseSchedule's doc comment.
		"static", "static,8", "dynamic", "dynamic,4", "guided", "guided,2",
		"aid-static", "aid-static,2", "aid-hybrid", "aid-hybrid,80", "aid-hybrid,80,4",
		"aid-dynamic", "aid-dynamic,1", "aid-dynamic,1,5", "work-steal", "work-steal,16",
		// OpenMP schedule kinds this vocabulary does not have.
		"auto", "runtime", "auto,2", "runtime,2,16",
		// A trailing rw word, which no method takes: after parameters or
		// none, in any case, repeated, alone.
		"aid-static,rw", "aid-static,2,rw", "aid-hybrid,80,rw", "aid-hybrid,100,1,rw",
		"aid-dynamic,1,5,rw", "AID-DYNAMIC,1,5,RW", "aid-dynamic,rw,rw", "aid-dynamic,rw,5",
		"static,rw", "dynamic,4,rw", "guided,2,rw", "rw", ",rw",
		// Huge and out-of-range parameters.
		"dynamic,9223372036854775807", "dynamic,9223372036854775808", "aid-dynamic,9223372036854775807,9223372036854775807",
		"aid-hybrid,101", "aid-hybrid,0", "dynamic,-3", "dynamic,+3", "dynamic,0x10", "dynamic,1e3", "dynamic,٣",
		// Empty and whitespace arguments.
		"", " ", ",", ",,", "dynamic,", "dynamic, ", "dynamic,,4", " dynamic , 3 ", "\tguided\t,\n2", "aid-dynamic, 1 , 5 , rw ",
		"dynamic,1,2", "aid-dynamic,1,2,3", "nonsense", "worK-steal,4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := core.ParseSchedule(text)
		if err != nil {
			if !reflect.DeepEqual(s, core.Schedule{}) {
				t.Fatalf("core.ParseSchedule(%q) failed (%v) but returned %+v", text, err, s)
			}
			return
		}
		c := s.Canonical()
		if c == "" {
			t.Fatalf("core.ParseSchedule(%q) = %+v has no canonical form", text, s)
		}
		s2, err := core.ParseSchedule(c)
		if err != nil {
			t.Fatalf("%q -> Canonical %q does not parse: %v", text, c, err)
		}
		if d, d2 := s.WithDefaults(), s2.WithDefaults(); !reflect.DeepEqual(d, d2) {
			t.Fatalf("%q -> Canonical %q selects %+v, want %+v", text, c, d2, d)
		}
	})
}
