package trace

// Workload definitions mirroring the paper's evaluation set (Section V and
// Table 2): nine GraphBIG kernels, SPEC CPU2017 mcf and omnetpp (four
// single-threaded instances each), and PARSEC canneal. Footprints are scaled
// down from the paper (106GB GraphBIG suite, 15GB mcf, 1GB omnetpp, 1.1GB
// canneal) while preserving the ratios that drive the results — see
// DESIGN.md §3 — and the per-benchmark DRAM sizes keep Table 2's
// footprint:DRAM proportions exactly.

// Workload describes one benchmark.
type Workload struct {
	// Name of the benchmark (paper's naming).
	Name string
	// Suite is graphbig, spec, or parsec.
	Suite string
	// FootprintBytes is the total OS-visible memory of the workload
	// (across all instances when Instanced).
	FootprintBytes uint64
	// Instanced workloads run four independent single-threaded copies
	// (mcf, omnetpp); others are one multi-threaded program.
	Instanced bool
	// CompressRatio is the average compression ratio the workload's data
	// achieves when a page is compressed (drives the per-page size model).
	CompressRatio float64
	// LowDRAMFrac and HighDRAMFrac size DRAM as a fraction of the
	// footprint for the paper's low/high compression settings (Table 2).
	LowDRAMFrac, HighDRAMFrac float64
	// PaperHugePageSpeedup is the real-system 2MB-vs-4KB speedup reported
	// in Figure 3, kept for EXPERIMENTS.md comparison columns.
	PaperHugePageSpeedup float64

	// mixture parameters
	scanW, gatherW, chaseW float64
	gatherSkew             float64
	gatherBurst            int
	gatherDep              float64
	nonMem                 uint8
	writes                 float64
	hotRegionFrac          float64 // gather region as fraction of footprint
	// scanFrac bounds the streaming component to a working window of the
	// edge region: graph kernels repeatedly sweep the adjacency lists of
	// the active frontier, not the whole edge array.
	scanFrac float64
}

// graphFootprint is the scaled footprint of each GraphBIG kernel.
const graphFootprint = 2 << 30

// Table 2 DRAM proportions.
const (
	graphLow, graphHigh     = 81.5 / 106.0, 35.0 / 106.0
	mcfLow, mcfHigh         = 13.7 / 15.0, 6.0 / 15.0
	omnetLow, omnetHigh     = 0.63 / 1.0, 0.4 / 1.0
	cannealLow, cannealHigh = 0.96 / 1.1, 0.73 / 1.1
)

func graphKernel(name string, scanW, gatherW, chaseW, skew, dep float64,
	nonMem uint8, speedup float64) Workload {
	return Workload{
		Name: name, Suite: "graphbig",
		FootprintBytes: graphFootprint,
		CompressRatio:  5.2,
		LowDRAMFrac:    graphLow, HighDRAMFrac: graphHigh,
		PaperHugePageSpeedup: speedup,
		scanW:                scanW, gatherW: gatherW, chaseW: chaseW,
		gatherSkew: skew, gatherBurst: 2, gatherDep: dep,
		nonMem: nonMem, writes: 0.28, hotRegionFrac: 1.0, scanFrac: 0.15,
	}
}

// Workloads returns the full evaluation set in the paper's order.
func Workloads() []Workload {
	return []Workload{
		graphKernel("bfs", 0.35, 0.55, 0.10, 1.25, 0.20, 4, 1.9),
		graphKernel("dfs", 0.15, 0.65, 0.20, 1.30, 0.30, 3, 2.0),
		graphKernel("sssp", 0.30, 0.60, 0.10, 1.20, 0.18, 4, 1.8),
		graphKernel("kcore", 0.40, 0.50, 0.10, 1.25, 0.15, 4, 1.7),
		graphKernel("concomp", 0.45, 0.45, 0.10, 1.20, 0.15, 5, 1.6),
		graphKernel("dcentr", 0.60, 0.40, 0.00, 1.30, 0.08, 5, 1.4),
		graphKernel("gcolor", 0.30, 0.60, 0.10, 1.20, 0.20, 4, 1.8),
		graphKernel("tc", 0.50, 0.45, 0.05, 1.15, 0.10, 3, 1.5),
		graphKernel("sp", 0.25, 0.63, 0.12, 1.25, 0.25, 4, 1.9),
		{
			Name: "mcf", Suite: "spec",
			FootprintBytes: 1536 << 20, Instanced: true,
			CompressRatio: 4.8,
			LowDRAMFrac:   mcfLow, HighDRAMFrac: mcfHigh,
			PaperHugePageSpeedup: 1.9,
			scanW:                0.30, gatherW: 0.25, chaseW: 0.45,
			gatherSkew: 1.20, gatherBurst: 1, gatherDep: 0.30,
			nonMem: 2, writes: 0.22, hotRegionFrac: 1.0, scanFrac: 0.15,
		},
		{
			Name: "omnetpp", Suite: "spec",
			FootprintBytes: 256 << 20, Instanced: true,
			CompressRatio: 4.3,
			LowDRAMFrac:   omnetLow, HighDRAMFrac: omnetHigh,
			PaperHugePageSpeedup: 1.5,
			scanW:                0.25, gatherW: 0.60, chaseW: 0.15,
			gatherSkew: 1.30, gatherBurst: 2, gatherDep: 0.25,
			nonMem: 6, writes: 0.30, hotRegionFrac: 0.25, scanFrac: 0.2,
		},
		{
			Name: "canneal", Suite: "parsec",
			FootprintBytes: 288 << 20,
			CompressRatio:  3.8,
			LowDRAMFrac:    cannealLow, HighDRAMFrac: cannealHigh,
			PaperHugePageSpeedup: 2.3,
			scanW:                0.10, gatherW: 0.90, chaseW: 0.0,
			gatherSkew: 1.02, gatherBurst: 1, gatherDep: 0.22,
			nonMem: 4, writes: 0.35, hotRegionFrac: 1.0,
		},
	}
}

// ByName returns the named workload, or false.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists all workload names in order.
func Names() []string {
	ws := Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// NewGenerator builds the access generator for one core of the workload.
// Multi-threaded workloads share one footprint across cores; instanced
// workloads partition the footprint into four per-core instances.
func (w Workload) NewGenerator(core int, seed int64) Generator {
	return w.build(NewMix(w.mixSeed(core, seed)), core)
}

// NewCountedMix builds the same stream as NewGenerator, on a source that
// counts its draws so the returned Mix can Snapshot its position. Counting
// costs a little per draw; callers that never snapshot use NewGenerator.
func (w Workload) NewCountedMix(core int, seed int64) *Mix {
	return w.build(newCountedMix(w.mixSeed(core, seed)), core)
}

func (w Workload) mixSeed(core int, seed int64) int64 {
	return seed ^ int64(core)*0x5851F42D4C957F2D ^ hashName(w.Name)
}

// build adds the workload's components for one core to an empty mixture.
func (w Workload) build(m *Mix, core int) *Mix {
	full := region{base: 0, size: w.FootprintBytes}
	if w.Instanced {
		inst := w.FootprintBytes / 4
		full = region{base: uint64(core%4) * inst, size: inst}
	}
	// Graph layout: vertex properties in the first quarter, edges after.
	vertexReg := region{base: full.base, size: full.size / 4}
	edgeReg := region{base: full.base + full.size/4, size: full.size - full.size/4}
	hotReg := full
	if w.hotRegionFrac < 1.0 {
		hotReg = region{base: full.base, size: uint64(float64(full.size) * w.hotRegionFrac)}
	}

	if w.scanW > 0 {
		scanReg := edgeReg
		if w.scanFrac > 0 && w.scanFrac < 1 {
			scanReg.size = uint64(float64(edgeReg.size)*w.scanFrac) &^ 4095
		}
		m.add(w.scanW, &scan{
			reg:    scanReg,
			stride: 64,
			// Each core starts at a different offset of the shared scan.
			pos:      (scanReg.size / 4) * uint64(core%4) &^ 63,
			writes:   w.writes,
			nonMem:   w.nonMem,
			streamID: uint64(core)<<8 | 1,
		})
	}
	if w.gatherW > 0 {
		gatherTarget := vertexReg
		if w.hotRegionFrac < 1.0 || w.Suite == "parsec" {
			gatherTarget = hotReg
		}
		if w.Suite == "parsec" {
			gatherTarget = full // canneal roams the whole netlist
		}
		m.add(w.gatherW, newZipfGather(m.rng, gatherTarget, w.gatherSkew,
			w.gatherBurst, w.writes, w.nonMem, w.gatherDep, uint64(core)<<8|2))
	}
	if w.chaseW > 0 {
		m.add(w.chaseW, &chase{gather: newZipfGather(m.rng, full, w.gatherSkew,
			1, 0, w.nonMem, 1.0, uint64(core)<<8|3)})
	}
	return m
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
