package amp

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// platformFile is the serialized shape of a platform description: exactly
// the three public fields of Platform. The flattened core table is derived,
// so it is rebuilt by New on decode.
type platformFile struct {
	Name     string
	Clusters []Cluster
	Overhead Overheads
}

// EncodeJSON serializes the platform description as indented JSON — the
// platform-file format Resolve and LoadFile read back. Only the description
// is written (name, clusters, overheads); derived state is recomputed on
// decode, so decode(encode(p)) reproduces p exactly for any platform built
// by New.
func (p *Platform) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(platformFile{Name: p.Name, Clusters: p.Clusters, Overhead: p.Overhead}, "", "  ")
}

// decodeJSON parses a platform file and rebuilds the platform through New,
// which fills defaulted energy/locality fields and rejects descriptions that
// fail Validate.
func decodeJSON(data []byte) (*Platform, error) {
	var pf platformFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("amp: parsing platform file: %w", err)
	}
	return New(pf.Name, pf.Clusters, pf.Overhead)
}

// LoadFile reads a platform file from disk (see decodeJSON).
func LoadFile(path string) (*Platform, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("amp: reading platform file: %w", err)
	}
	p, err := decodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("amp: %s: %w", path, err)
	}
	return p, nil
}

// registry maps the zoo's short names to preset constructors. Constructors,
// not instances: every Lookup returns a fresh platform, so callers can
// never alias each other's overhead tweaks.
var registry = map[string]func() *Platform{
	"a":       PlatformA,
	"b":       PlatformB,
	"tri":     PlatformTri,
	"cluster": PlatformCluster,
	"hybrid":  PlatformHybrid,
}

// Lookup resolves a registry name (case-insensitive) to a fresh platform.
func Lookup(name string) (*Platform, bool) {
	f, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return f(), true
}

// Names returns the registry's platform names, the two-cluster paper
// machines first, then alphabetically.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	canon := []string{"A", "B", "Tri", "Cluster", "Hybrid"}
	out := make([]string, 0, len(names))
	for _, c := range canon {
		if _, ok := registry[strings.ToLower(c)]; ok {
			out = append(out, c)
		}
	}
	for _, n := range names {
		known := false
		for _, c := range canon {
			if strings.EqualFold(c, n) {
				known = true
			}
		}
		if !known {
			out = append(out, n)
		}
	}
	return out
}

// Resolve is the shared -platform flag helper used by every command: the
// argument is either a registry name (see Names) or a path to a platform
// file. Registry names win; anything else must name a readable file.
func Resolve(nameOrPath string) (*Platform, error) {
	if p, ok := Lookup(nameOrPath); ok {
		return p, nil
	}
	if _, err := os.Stat(nameOrPath); err == nil {
		return LoadFile(nameOrPath)
	}
	return nil, fmt.Errorf("amp: unknown platform %q (registry: %s; or pass a platform-file path)",
		nameOrPath, strings.Join(Names(), ", "))
}

// PlatformCluster returns a dual-package big.LITTLE: two identical big
// clusters and two identical little clusters, one of each per package, every
// cluster with its own private LLC. It is the zoo's cross-package machine —
// a chunk handed off between packages pays the remote locality tier, and the
// nearest-victim steal order prefers the same-package sibling over the twin
// cluster on the other die.
func PlatformCluster() *Platform {
	big := func(pkg int) Cluster {
		return Cluster{
			Type: CoreType{
				Name:      "big",
				FreqGHz:   2.4,
				DutyCycle: 1.0,
				IPCScalar: 1.05,
				IPCMax:    3.4,
				MemGBps:   2.0,
				ActiveW:   2.2,
				IdleW:     0.2,
			},
			NumCores:  2,
			LLCMB:     1.5,
			MissSlope: 0.65,
			SatGBps:   2.1,
			Package:   pkg,
		}
	}
	little := func(pkg int) Cluster {
		return Cluster{
			Type: CoreType{
				Name:      "little",
				FreqGHz:   1.6,
				DutyCycle: 1.0,
				IPCScalar: 0.72,
				IPCMax:    0.58,
				MemGBps:   1.5,
				ActiveW:   0.4,
				IdleW:     0.04,
			},
			NumCores:  2,
			LLCMB:     0.5,
			MissSlope: 0.45,
			SatGBps:   1.9,
			Package:   pkg,
		}
	}
	ov := Overheads{
		PoolAccessNs:      115,
		ContentionNs:      100,
		LocalityPenaltyNs: 150,
		LocalityForeignNs: 230,
		LocalityRemoteNs:  430, // cross-die cache-line transfer
		ForkJoinNs:        8500,
		TimestampNs:       28,
	}
	p, err := New("Cluster (dual-package big.LITTLE, private LLCs)",
		[]Cluster{big(0), big(1), little(0), little(1)}, ov)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return p
}

// PlatformHybrid returns a P/E-core hybrid desktop in the style of a
// big-little x86 part: four wide P cores and two four-core E clusters, each
// E cluster sharing a private L2 that acts as its LLC slice, all on one
// package. Its 12 cores and 3 clusters make it the zoo's widest machine.
func PlatformHybrid() *Platform {
	pcore := Cluster{
		Type: CoreType{
			Name:      "P-core",
			FreqGHz:   3.2,
			DutyCycle: 1.0,
			IPCScalar: 1.4,
			IPCMax:    4.2,
			MemGBps:   5.2,
			ActiveW:   9.0,
			IdleW:     0.8,
		},
		NumCores:  4,
		LLCMB:     10.0,
		MissSlope: 0.2,
		SatGBps:   11.0,
	}
	ecluster := Cluster{
		Type: CoreType{
			Name:      "E-core",
			FreqGHz:   2.4,
			DutyCycle: 1.0,
			IPCScalar: 1.1,
			IPCMax:    2.3,
			MemGBps:   3.4,
			ActiveW:   2.4,
			IdleW:     0.25,
		},
		NumCores:  4,
		LLCMB:     2.0, // the E cluster's shared L2
		MissSlope: 0.35,
		SatGBps:   9.0,
	}
	ov := Overheads{
		PoolAccessNs:      80,
		ContentionNs:      85,
		LocalityPenaltyNs: 120,
		LocalityForeignNs: 190,
		LocalityRemoteNs:  320,
		ForkJoinNs:        4800,
		TimestampNs:       16,
	}
	p, err := New("Hybrid (4 P + 2x4 E-core desktop)",
		[]Cluster{pcore, ecluster, ecluster}, ov)
	if err != nil {
		panic(err)
	}
	return p
}
