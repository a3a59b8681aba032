package amp

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// randomPlatform builds a random valid platform through New, the way every
// real platform is built: decreasing per-cluster compute speed, positive
// finite rates, a random package assignment.
func randomPlatform(rng *rand.Rand) *Platform {
	ncl := 1 + rng.Intn(4)
	clusters := make([]Cluster, ncl)
	speed := 4.0 + rng.Float64()
	for i := range clusters {
		freq := 0.8 + 0.4*rng.Float64()
		duty := 0.5 + 0.5*rng.Float64()
		// Flat IPC response pins ComputeSpeed(0.5) to the strictly
		// decreasing series, so the generated clusters are always big-first.
		ipc := speed / (freq * duty)
		clusters[i] = Cluster{
			Type: CoreType{
				Name:      "ct",
				FreqGHz:   freq,
				DutyCycle: duty,
				IPCScalar: ipc,
				IPCMax:    ipc,
				MemGBps:   0.5 + 4*rng.Float64(),
				ActiveW:   0.1 + 5*rng.Float64(),
				IdleW:     0.01 + 0.2*rng.Float64(),
			},
			NumCores:  1 + rng.Intn(4),
			LLCMB:     rng.Float64() * 8,
			MissSlope: rng.Float64(),
			SatGBps:   rng.Float64() * 10,
			Package:   rng.Intn(2),
		}
		speed *= 0.4 + 0.4*rng.Float64() // strictly shrinking
	}
	ov := Overheads{
		PoolAccessNs:      rng.Float64() * 200,
		ContentionNs:      rng.Float64() * 100,
		LocalityPenaltyNs: rng.Float64() * 300,
		LocalityForeignNs: rng.Float64() * 400,
		LocalityRemoteNs:  rng.Float64() * 600,
		ForkJoinNs:        rng.Float64() * 10000,
		TimestampNs:       rng.Float64() * 50,
	}
	p, err := New("random", clusters, ov)
	if err != nil {
		panic(err)
	}
	return p
}

// TestPlatformJSONRoundTrip is the codec's property test:
// decode(encode(p)) == p for randomly generated valid platforms and for
// every zoo preset, including the derived flattened core table.
func TestPlatformJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ps []*Platform
	for i := 0; i < 200; i++ {
		ps = append(ps, randomPlatform(rng))
	}
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry name %q does not resolve", name)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("generated platform invalid: %v", err)
		}
		data, err := p.EncodeJSON()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		q, err := decodeJSON(data)
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the platform:\n%+v\nvs\n%+v", p, q)
		}
	}
}

func TestLoadFileRoundTrip(t *testing.T) {
	p := PlatformCluster()
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("LoadFile changed the platform")
	}
	// Resolve accepts both registry names and file paths.
	if r, err := Resolve(path); err != nil || !reflect.DeepEqual(r, p) {
		t.Fatalf("Resolve(path) = %v, err %v", r, err)
	}
	if r, err := Resolve("cluster"); err != nil || !reflect.DeepEqual(r, p) {
		t.Fatalf("Resolve(name) err %v", err)
	}
	if _, err := Resolve("no-such-platform"); err == nil {
		t.Fatal("Resolve of an unknown name should fail")
	}
}

// TestValidateRejections covers the malformations a platform file can carry.
func TestValidateRejections(t *testing.T) {
	valid := func() *Platform { return PlatformA() }
	cases := []struct {
		name string
		mut  func(p *Platform)
		want string
	}{
		{"zero-core cluster", func(p *Platform) { p.Clusters[1].NumCores = 0 }, "cores"},
		{"nan freq", func(p *Platform) { p.Clusters[0].Type.FreqGHz = math.NaN() }, "frequency"},
		{"negative freq", func(p *Platform) { p.Clusters[0].Type.FreqGHz = -2 }, "frequency"},
		{"inf freq", func(p *Platform) { p.Clusters[0].Type.FreqGHz = math.Inf(1) }, "frequency"},
		{"duty over 1", func(p *Platform) { p.Clusters[0].Type.DutyCycle = 1.5 }, "duty"},
		{"zero duty", func(p *Platform) { p.Clusters[0].Type.DutyCycle = 0 }, "duty"},
		{"nan ipc", func(p *Platform) { p.Clusters[0].Type.IPCScalar = math.NaN() }, "IPC"},
		{"zero mem", func(p *Platform) { p.Clusters[0].Type.MemGBps = 0 }, "memory"},
		{"negative watts", func(p *Platform) { p.Clusters[0].Type.ActiveW = -1 }, "power"},
		{"negative package", func(p *Platform) { p.Clusters[0].Package = -1 }, "package"},
		{"negative overhead", func(p *Platform) { p.Overhead.ContentionNs = -5 }, "overhead"},
		{"nan overhead", func(p *Platform) { p.Overhead.LocalityRemoteNs = math.NaN() }, "overhead"},
		{"not big-first", func(p *Platform) { p.Clusters[0], p.Clusters[1] = p.Clusters[1], p.Clusters[0] }, "big-first"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := valid()
			c.mut(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a platform with %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// The same malformations must be rejected at decode time.
	p := valid()
	p.Clusters[1].NumCores = 0
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeJSON(data); err == nil {
		t.Fatal("decodeJSON accepted a zero-core cluster")
	}
	if _, err := decodeJSON([]byte("not json")); err == nil {
		t.Fatal("decodeJSON accepted garbage")
	}
}

func TestZooPresetsValid(t *testing.T) {
	want := []string{"A", "B", "Tri", "Cluster", "Hybrid"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		// The energy model must be populated: every cluster draws power.
		for ci, c := range p.Clusters {
			if c.Type.ActiveW <= 0 || c.Type.IdleW <= 0 {
				t.Errorf("preset %s cluster %d has no power model: %+v", name, ci, c.Type)
			}
			if c.Type.IdleW >= c.Type.ActiveW {
				t.Errorf("preset %s cluster %d idles above active draw", name, ci)
			}
		}
		// The locality tiers must escalate with distance.
		ov := p.Overhead
		if !(ov.LocalityPenaltyNs < ov.LocalityForeignNs && ov.LocalityForeignNs < ov.LocalityRemoteNs) {
			t.Errorf("preset %s locality tiers do not escalate: %+v", name, ov)
		}
	}
	// Lookup is case-insensitive; fresh instances do not alias.
	p1, _ := Lookup("CLUSTER")
	p2, _ := Lookup("cluster")
	if p1 == p2 {
		t.Fatal("Lookup returned aliased instances")
	}
}

func TestClusterDist(t *testing.T) {
	p := PlatformCluster() // clusters: big(pkg0), big(pkg1), little(pkg0), little(pkg1)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 2, 1}, {0, 1, 2}, {0, 3, 2}, {1, 3, 1}, {2, 3, 2},
	}
	for _, c := range cases {
		if got := p.ClusterDist(c.a, c.b); got != c.want {
			t.Errorf("ClusterDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := p.ClusterDist(c.b, c.a); got != c.want {
			t.Errorf("ClusterDist not symmetric at (%d,%d)", c.b, c.a)
		}
	}
	d := p.TypeDist()
	if len(d) != 4 || d[0][2] != 1 || d[0][1] != 2 {
		t.Errorf("TypeDist malformed: %v", d)
	}
	// Single-package platforms never reach distance 2.
	for _, row := range PlatformHybrid().TypeDist() {
		for _, v := range row {
			if v > 1 {
				t.Errorf("Hybrid (one package) has distance %d", v)
			}
		}
	}
}

func TestZooTopologies(t *testing.T) {
	cl := PlatformCluster()
	if cl.NumCores() != 8 || len(cl.Clusters) != 4 || cl.NumBig() != 2 {
		t.Errorf("Cluster topology: %d cores, %d clusters, %d big", cl.NumCores(), len(cl.Clusters), cl.NumBig())
	}
	hy := PlatformHybrid()
	if hy.NumCores() != 12 || len(hy.Clusters) != 3 || hy.NumBig() != 4 {
		t.Errorf("Hybrid topology: %d cores, %d clusters, %d big", hy.NumCores(), len(hy.Clusters), hy.NumBig())
	}
	// Both presets keep the big-core advantage the schedulers depend on.
	for _, p := range []*Platform{cl, hy} {
		if sf := p.OfflineSF(Profile{ILP: 0.9}); sf <= 1.2 {
			t.Errorf("%s compute SF = %v, want clearly above 1", p.Name, sf)
		}
	}
}
