package core

import (
	"math/rand"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
)

func newDyLeCT(t *testing.T, groupSize uint64) (*Controller, *engine.Engine, *dram.Controller) {
	t.Helper()
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192)) // 24MB
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
		GroupSize:       groupSize,
	}, DefaultConfig())
	return c, eng, d
}

// warmHot makes unit u hot: repeated warm accesses drive expansion (ML2→ML1)
// and sampled counters until promotion to ML0.
func warmHot(c *Controller, u uint64, n int) {
	for i := 0; i < n; i++ {
		c.Warm(u*4096+uint64(i%64)*64, false)
	}
}

func TestGradualPromotionML2ToML1(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	c.Warm(0, false)
	if c.Level(0) != mc.ML1 {
		t.Fatalf("first touch should expand to ML1 (gradual), got level %d", c.Level(0))
	}
	if c.ShortCTE(0) != 3 {
		t.Fatal("fresh ML1 unit must have INVALID short CTE")
	}
}

func TestHotPageReachesML0(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	warmHot(c, 7, 400)
	if c.Level(7) != mc.ML0 {
		t.Fatalf("hot unit not promoted to ML0 (level %d, counter %d)",
			c.Level(7), c.Counter(7))
	}
	if c.ShortCTE(7) >= 3 {
		t.Fatalf("ML0 unit has invalid short CTE %d", c.ShortCTE(7))
	}
	// The short translation must resolve to the frame the unit occupies.
	frame := c.ShortCTEFrame(7)
	if c.FrameOwner(frame) != 7 {
		t.Fatalf("short CTE resolves to frame %d owned by %d", frame, c.FrameOwner(frame))
	}
	if c.Stats().Promotions.Value() == 0 {
		t.Fatal("promotion not counted")
	}
}

func TestShortCTEMappingFollowsHash(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	warmHot(c, 11, 400)
	if c.Level(11) != mc.ML0 {
		t.Skip("unit 11 did not promote in this configuration")
	}
	base := c.GroupBase(11)
	frame := c.ShortCTEFrame(11)
	if frame < base || frame >= base+3 {
		t.Fatalf("ML0 frame %d outside group [%d,%d)", frame, base, base+3)
	}
	// hash(p) = G*(p mod (M/G)): adjacent units use distinct groups.
	if c.GroupBase(11) == c.GroupBase(12) {
		t.Fatal("adjacent units must map to distinct DRAM page groups")
	}
}

func TestPreGatheredHitServesML0(t *testing.T) {
	c, eng, _ := newDyLeCT(t, 3)
	warmHot(c, 5, 400)
	if c.Level(5) != mc.ML0 {
		t.Skip("unit did not promote")
	}
	// Clear CTE cache stats; access the hot page in timed mode.
	c.Stats().Reset()
	c.CTE.ResetStats()
	done := false
	c.Access(5*4096, false, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("access not served")
	}
	if c.Stats().PreGatheredHits.Value() != 1 {
		t.Fatalf("expected a pre-gathered hit, got pg=%d uni=%d miss=%d",
			c.Stats().PreGatheredHits.Value(), c.Stats().UnifiedHits.Value(),
			c.Stats().CTEMisses.Value())
	}
}

func TestPreGatheredReachBeatsUnified(t *testing.T) {
	// Warm a working set far larger than the unified reach of the small
	// CTE cache but within the pre-gathered reach; DyLeCT should hold a
	// much higher hit rate than TMCC-style unified-only caching would.
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192))
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		CTECacheBytes:   8 << 10, // unified reach: 8KB/64*8*4KB = 4MB; pre-gathered reach: 128MB
		FreeTargetBytes: 1 << 20,
	}, DefaultConfig())
	rng := rand.New(rand.NewSource(21))
	// Hot set of 8MB (2048 units) — larger than the 4MB unified reach but
	// well within the pre-gathered reach, and small enough to stay
	// uncompressed under LRU.
	hot := make([]uint64, 2048)
	for i := range hot {
		hot[i] = uint64(i)
	}
	// Drive pages hot in random order (promotion requires sampled counters).
	for i := 0; i < 120000; i++ {
		u := hot[rng.Intn(len(hot))]
		c.Warm(u*4096+uint64(rng.Intn(64))*64, false)
	}
	ml0, _, _ := c.LevelCounts()
	if ml0 < 500 {
		t.Fatalf("only %d units reached ML0; promotion too weak for the test", ml0)
	}
	c.Stats().Reset()
	for i := 0; i < 20000; i++ {
		u := hot[rng.Intn(len(hot))]
		c.Warm(u*4096+uint64(rng.Intn(64))*64, false)
	}
	if hr := c.Stats().HitRate(); hr < 0.80 {
		t.Fatalf("DyLeCT hit rate %.3f on an ML0-heavy working set, want > 0.80", hr)
	}
	if c.Stats().PreGatheredHits.Value() < c.Stats().UnifiedHits.Value() {
		t.Fatal("pre-gathered blocks should dominate hits")
	}
}

func TestParallelFetchOnFullMiss(t *testing.T) {
	c, eng, d := newDyLeCT(t, 3)
	// Cold access to an ML2 unit: both blocks fetched in parallel.
	c.Access(9*4096, false, nil)
	eng.Run()
	if got := c.Stats().CTEBlockFetches.Value(); got != 2 {
		t.Fatalf("CTE block fetches = %d, want 2 (parallel pair)", got)
	}
	if d.Stats().ClassBursts[dram.ClassCTE].Value() < 2 {
		t.Fatal("both CTE blocks must hit DRAM")
	}
	// Pre-gathered block is always cached.
	if !c.CTE.Probe(c.PreGatheredBlockAddr(9)) {
		t.Fatal("pre-gathered block not cached after miss")
	}
	// Unified block cached too (page was ML2).
	if !c.CTE.Probe(c.UnifiedBlockAddr(9)) {
		t.Fatal("unified block for ML1/ML2 page not cached after miss")
	}
}

func TestML0MissCachesOnlyPreGathered(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	warmHot(c, 3, 400)
	if c.Level(3) != mc.ML0 {
		t.Skip("unit did not promote")
	}
	// Evict everything from the CTE cache by filling with other blocks.
	for i := uint64(0); i < 1<<16; i++ {
		c.CTE.Fill(1<<40+i*64, false)
	}
	c.Stats().Reset()
	c.Warm(3*4096, false)
	if c.Stats().CTEMisses.Value() != 1 {
		t.Fatalf("expected a full miss, got %d", c.Stats().CTEMisses.Value())
	}
	if !c.CTE.Probe(c.PreGatheredBlockAddr(3)) {
		t.Fatal("pre-gathered block must always be cached")
	}
	if c.CTE.Probe(c.UnifiedBlockAddr(3)) {
		t.Fatal("unified block must NOT be cached for an ML0 page")
	}
}

func TestDemotionWhenGroupFull(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	// Find 4 units sharing one group.
	groups := c.Space.NumFrames() / 3
	u0 := uint64(1)
	competitors := []uint64{u0, u0 + groups, u0 + 2*groups, u0 + 3*groups}
	for _, u := range competitors {
		if u >= c.NumUnits() {
			t.Skip("footprint too small for 4 competitors")
		}
	}
	// Make the first three hot: they fill all 3 slots.
	for _, u := range competitors[:3] {
		warmHot(c, u, 500)
	}
	inML0 := 0
	for _, u := range competitors[:3] {
		if c.Level(u) == mc.ML0 {
			inML0++
		}
	}
	if inML0 < 2 {
		t.Skipf("only %d competitors promoted; cannot exercise demotion", inML0)
	}
	// Now hammer the fourth much harder so it must displace a colder one.
	warmHot(c, competitors[3], 3000)
	if c.Level(competitors[3]) != mc.ML0 {
		t.Fatalf("hottest competitor stuck at level %d (counter %d)",
			c.Level(competitors[3]), c.Counter(competitors[3]))
	}
	if c.Stats().Demotions.Value() == 0 {
		t.Fatal("no demotion happened despite a full group")
	}
}

func TestGroupSizeSweepIncreasesML0(t *testing.T) {
	frac := func(g uint64) float64 {
		c, _, _ := newDyLeCT(t, g)
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 120000; i++ {
			u := uint64(rng.Intn(2048)) // 8MB hot region
			c.Warm(u*4096+uint64(rng.Intn(64))*64, false)
		}
		ml0, ml1, _ := c.LevelCounts()
		if ml0+ml1 == 0 {
			return 0
		}
		return float64(ml0) / float64(ml0+ml1)
	}
	f3 := frac(3)
	f7 := frac(7)
	if f3 <= 0.2 {
		t.Fatalf("ML0 fraction at G=3 is %.2f; promotion pipeline broken", f3)
	}
	if f7 < f3-0.05 {
		t.Fatalf("ML0 fraction should not shrink with G: f3=%.2f f7=%.2f", f3, f7)
	}
}

func TestCounterSaturationHalvesCompetitors(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	groups := c.Space.NumFrames() / 3
	u, v := uint64(2), uint64(2)+groups
	if v >= c.NumUnits() {
		t.Skip("footprint too small")
	}
	for i := 0; i < 31; i++ {
		c.BumpCounter(u)
	}
	c.BumpCounter(v)
	if c.Counter(u) != 31 || c.Counter(v) != 1 {
		t.Fatalf("setup failed: %d/%d", c.Counter(u), c.Counter(v))
	}
	c.BumpCounter(u) // saturation → halve group competitors
	if c.Counter(u) != 15 {
		t.Fatalf("saturated counter = %d, want 15 after halving", c.Counter(u))
	}
	if c.Counter(v) != 0 {
		t.Fatalf("competitor counter = %d, want 0 after halving", c.Counter(v))
	}
}

func TestWarmTimedEquivalence(t *testing.T) {
	// Equal sampling in both modes so the state machines match exactly.
	mk := func() (*Controller, *engine.Engine) {
		eng := engine.New()
		d := dram.NewController(eng, dram.DDR4(1, 1, 192))
		c := New(mc.Params{
			Eng: eng, DRAM: d,
			OSBytes:         32 << 20,
			SizeModel:       comp.NewSizeModel(3, 3.4),
			FreeTargetBytes: 1 << 20,
		}, Config{SamplePeriod: 20, WarmSamplePeriod: 20, PromoteThreshold: 2})
		return c, eng
	}
	cA, engA := mk()
	cB, _ := mk()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		a := uint64(rng.Intn(32<<20)) &^ 63
		cA.Access(a, false, nil)
		engA.Run()
		cB.Warm(a, false)
	}
	a0, a1, a2 := cA.LevelCounts()
	b0, b1, b2 := cB.LevelCounts()
	if a0 != b0 || a1 != b1 || a2 != b2 {
		t.Fatalf("timed (%d/%d/%d) vs functional (%d/%d/%d) state diverged",
			a0, a1, a2, b0, b1, b2)
	}
	if a, b := lookupCounts(cA.Stats()), lookupCounts(cB.Stats()); a != b {
		t.Fatalf("lookup counters (hits, misses, pre-gathered, unified, block fetches) diverged: timed %v, functional %v", a, b)
	}
}

// lookupCounts is every CTE lookup counter a timed and a functional run of
// the same accesses must agree on.
func lookupCounts(s *mc.Stats) [5]uint64 {
	return [5]uint64{s.CTEHits.Value(), s.CTEMisses.Value(), s.PreGatheredHits.Value(),
		s.UnifiedHits.Value(), s.CTEBlockFetches.Value()}
}

func TestCompressionRatioPreserved(t *testing.T) {
	// DyLeCT must not sacrifice compression: after heavy churn, the
	// occupied machine bytes per OS byte should match the size model.
	c, _, _ := newDyLeCT(t, 3)
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 150000; i++ {
		c.Warm(uint64(rng.Intn(32<<20))&^63, false)
	}
	ratio := c.CompressionRatio()
	if ratio < 1.25 {
		t.Fatalf("effective compression ratio %.2f collapsed", ratio)
	}
	// Free watermark held.
	if c.Space.FreeFrameBytes() < c.P.FreeTargetBytes/2 {
		t.Fatalf("free frames %d below half the watermark", c.Space.FreeFrameBytes())
	}
}

func TestPerfectCTESplitsHitsByLevel(t *testing.T) {
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192))
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
		PerfectCTE:      true,
	}, DefaultConfig())
	for i := 0; i < 200; i++ {
		c.Warm(uint64(i%32)*4096, false)
	}
	if c.Stats().CTEMisses.Value() != 0 {
		t.Fatal("perfect CTE missed")
	}
	if c.Stats().CTEHits.Value() != 200 {
		t.Fatal("hits not counted")
	}
}

func TestDirectToML0Ablation(t *testing.T) {
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192))
	cfg := DefaultConfig()
	cfg.DirectToML0 = true
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
	}, cfg)
	// A single touch must land the page straight in ML0 (double movement).
	c.Warm(5*4096, false)
	if c.Level(5) != mc.ML0 {
		t.Fatalf("direct-to-ML0 expansion left level %d", c.Level(5))
	}
	frame := c.ShortCTEFrame(5)
	if c.FrameOwner(frame) != 5 {
		t.Fatal("short CTE does not resolve after forced placement")
	}
	// Works for writes too.
	c.Warm(9*4096, true)
	if c.Level(9) != mc.ML0 {
		t.Fatalf("write expansion left level %d", c.Level(9))
	}
}

func TestPartialHitInvalidShortFallsToUnified(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	// Touch page 100 (expands to ML1) so its unified+pre-gathered blocks
	// get cached by the miss path.
	c.Warm(100*4096, false)
	if c.Level(100) != mc.ML1 {
		t.Fatal("setup: page not in ML1")
	}
	// Evict only the unified block; keep the pre-gathered block cached.
	c.CTE.Invalidate(c.UnifiedBlockAddr(100))
	if !c.CTE.Probe(c.PreGatheredBlockAddr(100)) {
		t.Skip("pre-gathered block not cached in this configuration")
	}
	c.Stats().Reset()
	c.Warm(100*4096, false)
	// Pre-gathered hit shows INVALID → unified miss → single fetch, cached.
	if c.Stats().CTEMisses.Value() != 1 {
		t.Fatalf("expected a unified-only miss, got %d misses / %d hits",
			c.Stats().CTEMisses.Value(), c.Stats().CTEHits.Value())
	}
	if c.Stats().CTEBlockFetches.Value() != 1 {
		t.Fatalf("partial miss must fetch exactly the unified block, fetched %d",
			c.Stats().CTEBlockFetches.Value())
	}
	if !c.CTE.Probe(c.UnifiedBlockAddr(100)) {
		t.Fatal("unified block for an ML1 page must be cached")
	}
}

func TestUnifiedHitServesML0WhenPreGatheredEvicted(t *testing.T) {
	c, _, _ := newDyLeCT(t, 3)
	warmHot(c, 4, 400)
	if c.Level(4) != mc.ML0 {
		t.Skip("unit did not promote")
	}
	// Force: pre-gathered evicted, unified cached.
	c.CTE.Invalidate(c.PreGatheredBlockAddr(4))
	c.CTE.Fill(c.UnifiedBlockAddr(4), false)
	c.Stats().Reset()
	c.Warm(4*4096, false)
	if c.Stats().UnifiedHits.Value() != 1 {
		t.Fatalf("unified block should serve the ML0 page (hits=%d misses=%d)",
			c.Stats().UnifiedHits.Value(), c.Stats().CTEMisses.Value())
	}
}

func BenchmarkDyLeCTWarmAccess(b *testing.B) {
	b.ReportAllocs()
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192))
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
	}, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Warm(uint64(rng.Intn(32<<20))&^63, false)
	}
}
