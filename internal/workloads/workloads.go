// Package workloads models the 21 OpenMP benchmarks of the paper's
// evaluation (§5): seven NAS Parallel Benchmarks (input class B), three
// PARSEC 3.0 applications (native inputs) and eleven Rodinia applications
// (inputs scaled up per [42]).
//
// A workload is a sim.Program: an ordered list of serial phases and parallel
// loops, where each loop carries a trip count, a per-iteration cost model
// and an instruction-mix profile. The models are calibrated to the published
// per-application behaviour, not to the source code of the originals — the
// loop-scheduling phenomena under study depend only on loop shape:
//
//   - trip count and per-iteration cost (sets dynamic's overhead ratio);
//   - cost distribution across iterations (uniform / block-noisy / rising);
//   - instruction mix (sets the loop's big-to-small speedup factor);
//   - working-set footprint (sets LLC-contention SF compression, §5C);
//   - serial fraction (sets the static(BS) master-on-big advantage).
//
// Each constructor's comment records the behaviours from §5 that the model
// encodes, and the package test suite asserts the key ones.
package workloads

import (
	"fmt"
	"strings"

	"repro/internal/amp"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Workload couples a modeled benchmark with its suite metadata.
type Workload struct {
	// Name is the benchmark's name as the paper spells it (e.g. "CG",
	// "blackscholes", "sradv1").
	Name string
	// Suite is "NPB", "PARSEC" or "Rodinia".
	Suite string
	// Program is the modeled phase structure.
	Program sim.Program
}

// loop assembles a LoopSpec phase with reps repetitions.
func loop(name string, ni int64, cost sim.CostModel, ilp, mem, fp float64, reps int) sim.Phase {
	return sim.Phase{
		Loop: &sim.LoopSpec{
			Name:    name,
			NI:      ni,
			Cost:    cost,
			Profile: amp.Profile{ILP: ilp, MemIntensity: mem, FootprintMB: fp},
		},
		Reps: reps,
	}
}

// serial assembles a serial phase. Serial sections are modeled as
// dependence-bound, low-ILP code (ILP 0.15), which puts the big-core serial
// acceleration near the ~2-2.6x the paper observes for static(BS) over
// static(SB) on serial-heavy programs (§5A).
func serial(units float64) sim.Phase {
	return sim.Phase{SerialUnits: units, SerialProfile: amp.Profile{ILP: 0.15}}
}

// uni is shorthand for a uniform cost model.
func uni(perIter float64) sim.CostModel { return sim.UniformCost{PerIter: perIter} }

// blocky is shorthand for block-correlated noisy cost.
func blocky(base, amp float64, blockLen int64, seed uint64) sim.CostModel {
	return sim.BlockNoisyCost{Base: base, Amp: amp, BlockLen: blockLen, Seed: seed}
}

// EP models NPB EP (Embarrassingly Parallel, class B): a single
// compute-bound parallel loop spanning the entire execution, with
// iterations of *roughly* — not exactly — equal cost (§2, §4.2: the mild
// cost variation is why AID-hybrid beats AID-static by ~10.5% on EP,
// Fig. 4). The random-number recurrences serialize the instruction stream
// (low exploitable ILP), so the loop's effective SF is moderate; the tiny
// memory component keeps the loop compute-bound, which is what makes the
// 2B-2S and 4S configurations of Fig. 1 complete in nearly the same time
// (no shared-resource coupling between core counts).
func EP() Workload {
	return Workload{
		Name:  "EP",
		Suite: "NPB",
		Program: sim.Program{
			Name: "EP",
			Phases: []sim.Phase{
				serial(2e6),
				loop("ep-main", 16384, blocky(120000, 0.35, 256, 0xE9), 0.25, 0.05, 0.1, 1),
			},
		},
	}
}

// BT models NPB BT (Block Tridiagonal solver): many distinct loop nests per
// time step whose instruction mixes differ widely — the paper measures SFs
// between ~1 and ~7.7 across BT's first 30 loops on Platform A and a narrow
// 1.7–2.2 band on Platform B (Fig. 2a/2b). The model generates 30 loops
// with seeded profile variety, repeated over time steps.
func BT() Workload {
	rng := xrand.New(0xB7)
	phases := []sim.Phase{serial(4e6)}
	for i := 0; i < 30; i++ {
		ilp := 0.1 + 0.55*rng.Float64()
		mem := 0.2 + 0.45*rng.Float64()
		fp := 0.1 + 0.3*rng.Float64()
		if i%9 == 3 {
			// A few loops are dense, vectorizable kernels: these produce
			// the high-SF outliers of Fig. 2a (up to ~7.7 on Platform A).
			ilp, mem = 0.93+0.07*rng.Float64(), 0.02+0.06*rng.Float64()
		}
		// NPB class B loop nests iterate a single grid dimension: around a
		// hundred expensive iterations each (the inner dimensions are the
		// loop body). Few-trip loops are what make large dynamic chunks
		// catastrophic in Fig. 8.
		ni := int64(96 + rng.Intn(80))
		cost := 150000 + 400000*rng.Float64()
		phases = append(phases,
			loop(fmt.Sprintf("bt-l%02d", i), ni, uni(cost), ilp, mem, fp, 4))
	}
	return Workload{Name: "BT", Suite: "NPB", Program: sim.Program{Name: "BT", Phases: phases}}
}

// CG models NPB CG (Conjugate Gradient): many short, mostly memory-bound
// loops with cheap iterations. The per-call overhead of dynamic(1) is large
// relative to iteration cost, which is why CG is one of the programs where
// dynamic "delivers poor performance" on Platform A and slows down by up to
// 2.86x on Platform B (§5A). Its offline SF still spans a wide range on A
// (Fig. 2c) because a few loops are compute-dense.
func CG() Workload {
	rng := xrand.New(0xC6)
	phases := []sim.Phase{serial(3e6)}
	for i := 0; i < 30; i++ {
		var ilp, mem float64
		if i%5 == 0 {
			ilp, mem = 0.92+0.08*rng.Float64(), 0.02+0.06*rng.Float64() // compute-dense
		} else {
			ilp, mem = 0.1+0.3*rng.Float64(), 0.45+0.35*rng.Float64() // sparse matvec
		}
		ni := int64(1500 + rng.Intn(2500))
		cost := 700 + 900*rng.Float64() // cheap iterations
		phases = append(phases,
			loop(fmt.Sprintf("cg-l%02d", i), ni, uni(cost), ilp, mem, 0.15, 7))
	}
	return Workload{Name: "CG", Suite: "NPB", Program: sim.Program{Name: "CG", Phases: phases}}
}

// FT models NPB FT (3-D FFT): loops whose iteration costs are uneven at a
// coarse granularity (transposes and butterfly stages touch very different
// data volumes), making dynamic clearly beneficial (§5A) — and AID-static
// still gains 24.5% over static(BS) because the asymmetry imbalance
// dominates the cost unevenness.
func FT() Workload {
	phases := []sim.Phase{serial(4e6)}
	for i := 0; i < 6; i++ {
		phases = append(phases,
			loop(fmt.Sprintf("ft-l%d", i), 256, blocky(234000, 2.5, 8, uint64(0xF7+i)), 0.45, 0.4, 0.3, 6))
	}
	return Workload{Name: "FT", Suite: "NPB", Program: sim.Program{Name: "FT", Phases: phases}}
}

// IS models NPB IS (Integer Sort): a short program of very cheap,
// memory-bound iterations across many loop invocations plus a visible
// serial fraction. dynamic(1)'s pool traffic swamps the tiny iterations —
// the paper measures a 1.93x slowdown vs static(SB) on Platform A (§5A) —
// while the serial phases give static(BS) a large win over static(SB).
func IS() Workload {
	phases := []sim.Phase{serial(3.5e7)}
	for i := 0; i < 3; i++ {
		phases = append(phases,
			loop(fmt.Sprintf("is-l%d", i), 10000, uni(230), 0.3, 0.55, 0.1, 14))
		phases = append(phases, serial(6e6))
	}
	return Workload{Name: "IS", Suite: "NPB", Program: sim.Program{Name: "IS", Phases: phases}}
}

// LU models NPB LU (Gauss-Seidel solver): mid-cost loops of moderate memory
// intensity; neither dynamic-hostile nor dynamic-friendly, with modest AID
// gains.
func LU() Workload {
	rng := xrand.New(0x17)
	phases := []sim.Phase{serial(3e6)}
	for i := 0; i < 20; i++ {
		ilp := 0.2 + 0.35*rng.Float64()
		mem := 0.3 + 0.3*rng.Float64()
		ni := int64(2000 + rng.Intn(2000))
		phases = append(phases,
			loop(fmt.Sprintf("lu-l%02d", i), ni, uni(3500+3000*rng.Float64()), ilp, mem, 0.2, 5))
	}
	return Workload{Name: "LU", Suite: "NPB", Program: sim.Program{Name: "LU", Phases: phases}}
}

// MG models NPB MG (Multigrid): V-cycle loops over grid levels whose trip
// counts shrink geometrically; the small coarse-level loops amplify
// runtime overhead, the large fine-level loops are bandwidth-bound.
func MG() Workload {
	phases := []sim.Phase{serial(3e6)}
	for lvl, ni := range []int64{512, 128, 32, 8} {
		cost := 28000.0
		phases = append(phases,
			loop(fmt.Sprintf("mg-lvl%d", lvl), ni, uni(cost), 0.35, 0.5, 0.35, 9))
	}
	return Workload{Name: "MG", Suite: "NPB", Program: sim.Program{Name: "MG", Phases: phases}}
}

// Blackscholes models PARSEC blackscholes (native input): a serial input
// parse followed by repeated sweeps of a single option-pricing loop. Two
// published behaviours drive the model: the serial phase rewards
// static(BS); and the loop is compute-dense per thread but cache-hungry in
// aggregate — its *offline* (single-thread) SF is high while the 8-thread SF
// collapses because per-thread LLC misses grow 3.6x (§5C, Fig. 9c). The
// 0.85 MB footprint triggers exactly that compression in the platform
// model. Iterations are cheap enough that dynamic(1) overhead hurts (§5A).
func Blackscholes() Workload {
	return Workload{
		Name:  "blackscholes",
		Suite: "PARSEC",
		Program: sim.Program{
			Name: "blackscholes",
			Phases: []sim.Phase{
				serial(5.5e7),
				loop("bs-price", 14000, uni(500), 0.92, 0.06, 0.85, 20),
			},
		},
	}
}

// Bodytrack models PARSEC bodytrack: medium-cost particle-weighting loops
// with mild content-dependent unevenness and a healthy compute mix; the
// paper reports one of the largest AID-static gains over static(BS) here
// (29.7%, §5A).
func Bodytrack() Workload {
	phases := []sim.Phase{serial(6e6)}
	for i := 0; i < 4; i++ {
		phases = append(phases,
			loop(fmt.Sprintf("bt-stage%d", i), 640, blocky(62500, 0.8, 16, uint64(0xB0+i)), 0.5, 0.3, 0.25, 8))
	}
	return Workload{Name: "bodytrack", Suite: "PARSEC", Program: sim.Program{Name: "bodytrack", Phases: phases}}
}

// Streamcluster models PARSEC streamcluster: long repeated distance
// computation loops, compute-bound with a small footprint, so the loop SF
// stays high even with 8 threads — the best case for asymmetric
// distribution. The paper's largest AID gains appear here: +30.7%
// (AID-static) and +56% (AID-hybrid) over static(BS), and +11% for
// AID-dynamic over dynamic(BS) (§5A).
func Streamcluster() Workload {
	return Workload{
		Name:  "streamcluster",
		Suite: "PARSEC",
		Program: sim.Program{
			Name: "streamcluster",
			Phases: []sim.Phase{
				serial(4e6),
				loop("sc-dist", 6000, uni(4200), 0.8, 0.2, 0.65, 16),
			},
		},
	}
}

// BFS models Rodinia bfs (scaled input): level-synchronous traversal with
// short irregular loops of cheap memory-bound iterations, plus a serial
// graph-load phase. dynamic performs poorly (overhead on tiny iterations,
// §5A) and static(BS) gains from the serial phase.
func BFS() Workload {
	rng := xrand.New(0xBF)
	phases := []sim.Phase{serial(4.5e7)}
	for lvl := 0; lvl < 10; lvl++ {
		ni := int64(600 + rng.Intn(3000))
		phases = append(phases,
			loop(fmt.Sprintf("bfs-lvl%d", lvl), ni, uni(520), 0.15, 0.65, 0.12, 8))
	}
	return Workload{Name: "bfs", Suite: "Rodinia", Program: sim.Program{Name: "bfs", Phases: phases}}
}

// BPTree models Rodinia b+tree: "the initialization phase (inherently
// sequential) takes the vast majority of the execution time" (§5A), so the
// dominant effect is accelerating the serial phase on a big core;
// loop-scheduling differences barely register.
func BPTree() Workload {
	return Workload{
		Name:  "bptree",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "bptree",
			Phases: []sim.Phase{
				serial(5e8),
				loop("bpt-search", 5000, uni(2600), 0.45, 0.4, 0.2, 4),
			},
		},
	}
}

// CFD models Rodinia cfd (CFDEuler3D): an unstructured-mesh flux solver
// with fairly expensive, moderately memory-bound iterations over many time
// steps.
func CFD() Workload {
	return Workload{
		Name:  "CFDEuler3D",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "CFDEuler3D",
			Phases: []sim.Phase{
				serial(8e6),
				loop("cfd-flux", 1000, uni(62500), 0.45, 0.35, 0.3, 9),
				loop("cfd-update", 1000, uni(15000), 0.3, 0.5, 0.3, 9),
			},
		},
	}
}

// Heartwall models Rodinia heartwall: per-frame tracking loops whose cost
// depends on image content (block-noisy), moderately compute-bound;
// dynamic and AID-dynamic do well.
func Heartwall() Workload {
	return Workload{
		Name:  "heartwall",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "heartwall",
			Phases: []sim.Phase{
				serial(7e6),
				loop("hw-track", 450, blocky(128000, 1.8, 9, 0x8A), 0.45, 0.3, 0.25, 7),
			},
		},
	}
}

// Hotspot models Rodinia hotspot: a 2-D thermal stencil — uniform
// iteration cost, mixed compute/memory profile, many time steps.
func Hotspot() Workload {
	return Workload{
		Name:  "hotspot",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "hotspot",
			Phases: []sim.Phase{
				serial(6e6),
				loop("hs-step", 1024, uni(30500), 0.4, 0.4, 0.22, 11),
			},
		},
	}
}

// Hotspot3D models Rodinia hotspot3D: the 3-D stencil variant — cheaper
// per-iteration work across more iterations, a visible serial setup (the
// static(BS) gain of §5A), and enough dynamic-friendly asymmetry that
// AID-dynamic beats dynamic(BS) by 16.8% on Platform A, the paper's largest
// AID-dynamic gain (§5A).
func Hotspot3D() Workload {
	return Workload{
		Name:  "hotspot3D",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "hotspot3D",
			Phases: []sim.Phase{
				serial(4.5e7),
				loop("hs3d-step", 11000, uni(1900), 0.45, 0.35, 0.18, 9),
			},
		},
	}
}

// LavaMD models Rodinia lavamd: N-body particle interactions within boxes —
// expensive compute-bound iterations, mild unevenness from neighbour counts.
// Benefits from dynamic distribution, so lower AID-hybrid percentages suit
// it (§5B lists lavamd among the programs favoured by pct≈60%).
func LavaMD() Workload {
	return Workload{
		Name:  "lavamd",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "lavamd",
			Phases: []sim.Phase{
				serial(5e6),
				loop("lava-boxes", 500, blocky(208000, 1.2, 8, 0x1A), 0.55, 0.25, 0.15, 5),
			},
		},
	}
}

// Leukocyte models Rodinia leukocyte: cell-detection loops whose per-cell
// cost varies heavily with image content — the canonical dynamic-friendly
// workload in the paper (§5A: dynamic "clearly beneficial"; §5B: favoured
// by lower AID-hybrid percentages).
func Leukocyte() Workload {
	return Workload{
		Name:  "leukocyte",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "leukocyte",
			Phases: []sim.Phase{
				serial(8e6),
				loop("leu-detect", 600, blocky(119000, 4.0, 10, 0x1E), 0.5, 0.3, 0.2, 6),
			},
		},
	}
}

// ParticleFilter models Rodinia particlefilter: its long-running loop's
// "final iterations are more heavyweight computationally than the first"
// (§5A), modeled with a rising linear cost. Consequences the paper calls
// out: static(BS) is *worse* than static(SB) — the BS mapping hands the
// expensive tail to small cores — AID-static inherits the same problem, and
// dynamic fixes it.
func ParticleFilter() Workload {
	const ni = 2000
	const base = 21000.0
	// Final iterations cost ~3.4x the first.
	const slope = 2.4 * base / ni
	return Workload{
		Name:  "particlefilter",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "particlefilter",
			Phases: []sim.Phase{
				serial(9e6),
				loop("pf-weights", ni, sim.LinearCost{Base: base, Slope: slope}, 0.4, 0.35, 0.18, 7),
			},
		},
	}
}

// SradV1 models Rodinia srad_v1: speckle-reducing anisotropic diffusion —
// two stencil loops per step, compute-leaning, where dynamic partially
// absorbs the asymmetry imbalance (§5A groups sradv1/sradv2 with bodytrack
// in that respect).
func SradV1() Workload {
	return Workload{
		Name:  "sradv1",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "sradv1",
			Phases: []sim.Phase{
				serial(5e6),
				loop("srad1-grad", 700, uni(46400), 0.5, 0.3, 0.2, 9),
				loop("srad1-diff", 700, uni(34400), 0.4, 0.4, 0.2, 9),
			},
		},
	}
}

// SradV2 models Rodinia srad_v2: the restructured variant with a more
// bandwidth-bound second kernel.
func SradV2() Workload {
	return Workload{
		Name:  "sradv2",
		Suite: "Rodinia",
		Program: sim.Program{
			Name: "sradv2",
			Phases: []sim.Phase{
				serial(5e6),
				loop("srad2-k1", 800, uni(40800), 0.45, 0.35, 0.25, 9),
				loop("srad2-k2", 800, uni(25600), 0.35, 0.5, 0.25, 9),
			},
		},
	}
}

// NPB returns the modeled NAS Parallel Benchmarks in the paper's order.
func NPB() []Workload {
	return []Workload{BT(), CG(), EP(), FT(), IS(), LU(), MG()}
}

// PARSEC returns the modeled PARSEC applications.
func PARSEC() []Workload {
	return []Workload{Blackscholes(), Bodytrack(), Streamcluster()}
}

// Rodinia returns the modeled Rodinia applications.
func Rodinia() []Workload {
	return []Workload{
		BFS(), BPTree(), CFD(), Heartwall(), Hotspot(), Hotspot3D(),
		LavaMD(), Leukocyte(), ParticleFilter(), SradV1(), SradV2(),
	}
}

// All returns all 21 workloads grouped by suite, in the paper's figure
// order (NPB, PARSEC, Rodinia).
func All() []Workload {
	out := NPB()
	out = append(out, PARSEC()...)
	out = append(out, Rodinia()...)
	return out
}

// ByName returns the workload with the given name, or an error that lists
// the names there are.
func ByName(name string) (Workload, error) {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q; available: %s", name, strings.Join(names, ", "))
}
