// Package trace synthesizes the memory access streams of the paper's
// evaluation workloads: nine GraphBIG graph kernels, SPEC CPU2017 mcf and
// omnetpp, and PARSEC canneal. Real inputs are tens of gigabytes and not
// redistributable, so each workload is modeled as a deterministic mixture of
// access-pattern components (sequential scans, Zipf-skewed gathers,
// dependent pointer chases) whose parameters capture what the paper's
// results depend on: footprint size relative to translation reach, hot-set
// skew, spatial locality, memory intensity, dependence (memory-level
// parallelism), and data compressibility.
package trace

import "math/rand"

// Access is one memory instruction in the synthesized stream.
type Access struct {
	// VA is the virtual byte address.
	VA uint64
	// Write marks stores.
	Write bool
	// NonMemInsts counts the non-memory instructions retired before this
	// access (controls memory intensity).
	NonMemInsts uint8
	// Dependent marks loads the next instructions depend on (pointer
	// chase); the core cannot overlap past them.
	Dependent bool
	// Stream identifies the access stream (stands in for the PC) for
	// stride prefetching.
	Stream uint64
}

// Generator produces an infinite access stream.
type Generator interface {
	Next(a *Access)
}

// component is a single access-pattern primitive inside a mixture. bind
// returns an independent copy of the component drawing from rng; a nil rng
// yields a detached copy that only a later bind may draw from.
type component interface {
	next(rng *rand.Rand, a *Access)
	bind(rng *rand.Rand) component
}

// region is a byte range [base, base+size).
type region struct {
	base uint64
	size uint64
}

// scan streams sequentially through its region with a fixed stride,
// wrapping at the end — edge-list traversal, array sweeps.
type scan struct {
	reg      region
	stride   uint64
	pos      uint64
	writes   float64
	nonMem   uint8
	streamID uint64
}

func (s *scan) next(rng *rand.Rand, a *Access) {
	a.VA = s.reg.base + s.pos
	s.pos += s.stride
	if s.pos >= s.reg.size {
		s.pos = 0
	}
	a.Write = rng.Float64() < s.writes
	a.NonMemInsts = s.nonMem
	a.Dependent = false
	a.Stream = s.streamID
}

func (s *scan) bind(*rand.Rand) component {
	c := *s
	return &c
}

// zipfGather touches a Zipf-distributed page within its region, with a
// configurable number of spatially-local follow-on accesses per touch —
// vertex-property gathers, hash lookups.
type zipfGather struct {
	reg       region
	zipf      *rand.Zipf
	skew      float64
	nPages    uint64
	burst     int // accesses per page touch (spatial locality)
	burstLeft int
	curPage   uint64
	writes    float64
	nonMem    uint8
	dependent float64
	streamID  uint64
}

// clusterPages is the spatial-clustering granularity of hot data: hot Zipf
// ranks map into 64-page (256KB) clusters scattered across the region, the
// way hot structures occupy whole allocations in real heaps. This is what
// gives CTE blocks (8 pages each) their spatial reuse.
const clusterPages = 64

func newZipfGather(rng *rand.Rand, reg region, skew float64, burst int, writes float64,
	nonMem uint8, dependent float64, stream uint64) *zipfGather {
	nPages := reg.size / 4096
	if nPages == 0 {
		nPages = 1
	}
	return &zipfGather{
		reg:       reg,
		zipf:      rand.NewZipf(rng, skew, 1, nPages-1),
		skew:      skew,
		nPages:    nPages,
		burst:     burst,
		writes:    writes,
		nonMem:    nonMem,
		dependent: dependent,
		streamID:  stream,
	}
}

// rankToPage maps a Zipf rank to a page, scattering hot data in
// clusterPages-sized clusters across the region.
func (z *zipfGather) rankToPage(rank uint64) uint64 {
	nClusters := z.nPages / clusterPages
	if nClusters == 0 {
		return rank % z.nPages
	}
	cluster := rank / clusterPages
	within := rank % clusterPages
	page := (cluster*0x9E3779B97F4A7C15%nClusters)*clusterPages + within
	if page >= z.nPages {
		page = rank % z.nPages
	}
	return page
}

func (z *zipfGather) next(rng *rand.Rand, a *Access) {
	if z.burstLeft == 0 {
		z.curPage = z.rankToPage(z.zipf.Uint64())
		z.burstLeft = z.burst
	}
	z.burstLeft--
	off := rng.Uint64() % 4096 &^ 7
	a.VA = z.reg.base + z.curPage*4096 + off
	a.Write = rng.Float64() < z.writes
	a.NonMemInsts = z.nonMem
	a.Dependent = rng.Float64() < z.dependent
	a.Stream = z.streamID
}

func (z *zipfGather) bind(rng *rand.Rand) component { return z.rebind(rng) }

// rebind copies the gather with its Zipf sampler drawing from rng. The
// sampler's other fields are constants of (skew, nPages), so a fresh one is
// equivalent to the original at any point of the stream.
func (z *zipfGather) rebind(rng *rand.Rand) *zipfGather {
	c := *z
	c.zipf = nil
	if rng != nil {
		c.zipf = rand.NewZipf(rng, z.skew, 1, z.nPages-1)
	}
	return &c
}

// chase models dependent pointer chasing: every access is a load whose
// address the next access depends on, hopping between Zipf-skewed pages.
type chase struct {
	gather *zipfGather
}

func (c *chase) next(rng *rand.Rand, a *Access) {
	c.gather.next(rng, a)
	a.Dependent = true
	a.Write = false
}

func (c *chase) bind(rng *rand.Rand) component { return &chase{gather: c.gather.rebind(rng)} }

// Mix is a weighted mixture of components; the standard Generator
// implementation.
type Mix struct {
	rng     *rand.Rand
	seed    int64
	counter *countingSource // nil unless built by NewCountedMix
	comps   []component
	weights []float64
	total   float64
}

// NewMix builds a mixture generator with the given RNG seed.
func NewMix(seed int64) *Mix {
	return &Mix{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// newCountedMix is NewMix over a source that counts its steps, so Snapshot
// can record the mixture's position.
func newCountedMix(seed int64) *Mix {
	c := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return &Mix{rng: rand.New(c), seed: seed, counter: c}
}

func (m *Mix) add(w float64, c component) {
	m.comps = append(m.comps, c)
	m.weights = append(m.weights, w)
	m.total += w
}

// Next produces the next access.
func (m *Mix) Next(a *Access) {
	r := m.rng.Float64() * m.total
	for i, w := range m.weights {
		if r < w || i == len(m.comps)-1 {
			m.comps[i].next(m.rng, a)
			return
		}
		r -= w
	}
}

// countingSource counts the steps drawn from a math/rand source. Every
// Rand method advances the underlying source one step per Int63 or Uint64
// call, so the count alone re-derives the source's state from its seed.
type countingSource struct {
	rand.Source64
	steps uint64
}

func (c *countingSource) Int63() int64 {
	c.steps++
	return c.Source64.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.steps++
	return c.Source64.Uint64()
}

// MixState is a Mix's position in its stream: the seed and step count of
// its source plus detached copies of its components' cursors. It is
// immutable; any number of goroutines may Restore from one MixState.
type MixState struct {
	seed    int64
	steps   uint64
	comps   []component
	weights []float64
	total   float64
}

// Snapshot records the mixture's current position. Only a Mix built by
// NewCountedMix knows its position; Snapshot panics on any other.
func (m *Mix) Snapshot() MixState {
	if m.counter == nil {
		panic("trace: Snapshot of a Mix without a counted source")
	}
	st := MixState{seed: m.seed, steps: m.counter.steps, weights: m.weights, total: m.total}
	for _, c := range m.comps {
		st.comps = append(st.comps, c.bind(nil))
	}
	return st
}

// Restore builds a Mix that continues the snapshotted stream draw for draw.
// The new Mix runs on a plain (uncounted) source: reseeded, then advanced
// by the recorded step count.
func (st MixState) Restore() *Mix {
	src := rand.NewSource(st.seed)
	for i := uint64(0); i < st.steps; i++ {
		src.Int63()
	}
	m := &Mix{rng: rand.New(src), seed: st.seed, weights: st.weights, total: st.total}
	m.comps = make([]component, len(st.comps))
	for i, c := range st.comps {
		m.comps[i] = c.bind(m.rng)
	}
	return m
}
