package amp

import (
	"reflect"
	"testing"
)

// FuzzDecodePlatform: a platform file is outside input (-platform <path>), so
// decodeJSON must never panic nor allocate by a number in the file, and what
// it accepts must be a platform the rest of the tree can use: it passes
// Validate, and it survives EncodeJSON -> decodeJSON unchanged, derived
// tables included (New's defaults are idempotent).
func FuzzDecodePlatform(f *testing.F) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		data, err := p.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		``, `null`, `{}`, `[]`, `{"Clusters":[]}`, `{"Clusters":[{}]}`, `{"Clusters":null,"Name":7}`,
		// The smallest accepted file, then its fields out of range one at a time.
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":4097}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":9223372036854775807}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":-1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1e308,"DutyCycle":1,"IPCScalar":1e308,"IPCMax":1,"MemGBps":1},"NumCores":1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1e-320,"DutyCycle":1e-9,"IPCScalar":1e-320,"IPCMax":1,"MemGBps":1},"NumCores":1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":2,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":1,"Package":-1}]}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1},"NumCores":1}],"Overhead":{"LocalityPenaltyNs":1e308}}`,
		`{"Clusters":[{"Type":{"FreqGHz":1,"DutyCycle":1,"IPCScalar":1,"IPCMax":1,"MemGBps":1,"ActiveW":-0.0},"NumCores":1,"LLCMB":-0.0}],"Name":"\ud800"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeJSON(data)
		if err != nil {
			if p != nil {
				t.Fatalf("decodeJSON failed (%v) but returned %+v", err, p)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decodeJSON accepted a platform Validate refuses: %v", err)
		}
		if p.NumCores() < 1 || p.NumCores() > maxCores {
			t.Fatalf("decodeJSON accepted a platform of %d cores", p.NumCores())
		}
		again, err := p.EncodeJSON()
		if err != nil {
			t.Fatalf("encoding an accepted platform: %v", err)
		}
		q, err := decodeJSON(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded platform: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("EncodeJSON -> decodeJSON changed the platform:\n%+v\nvs\n%+v", p, q)
		}
	})
}
