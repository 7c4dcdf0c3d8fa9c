package tmcc

import (
	"math/rand"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
)

func newTMCC(t *testing.T, cteKB int) (*Controller, *engine.Engine, *dram.Controller) {
	t.Helper()
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192)) // 24MB
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		CTECacheBytes:   cteKB << 10,
		FreeTargetBytes: 1 << 20,
	})
	return c, eng, d
}

func TestAccessMissThenHit(t *testing.T) {
	c, eng, _ := newTMCC(t, 128)
	served := 0
	c.Access(0, false, func() { served++ })
	eng.Run()
	if served != 1 {
		t.Fatal("first access not served")
	}
	if c.Stats().CTEMisses.Value() != 1 {
		t.Fatalf("cold access should miss the CTE cache: %d", c.Stats().CTEMisses.Value())
	}
	// Same unit again: CTE block now cached.
	c.Access(64, false, func() { served++ })
	eng.Run()
	if c.Stats().CTEHits.Value() != 1 {
		t.Fatal("second access should hit the CTE cache")
	}
	// A unit in the same 8-unit CTE block also hits.
	c.Access(3*4096, false, func() { served++ })
	eng.Run()
	if c.Stats().CTEHits.Value() != 2 {
		t.Fatal("block neighbour should hit")
	}
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
}

func TestFirstTouchExpands(t *testing.T) {
	c, eng, d := newTMCC(t, 128)
	c.Access(5*4096, false, nil)
	eng.Run()
	if c.Level(5) != mc.ML1 {
		t.Fatal("accessed unit should be expanded to ML1")
	}
	if c.Stats().Expansions.Value() != 1 {
		t.Fatal("expansion not counted")
	}
	if d.Stats().ClassBytes(dram.ClassMigration) == 0 {
		t.Fatal("expansion produced no migration traffic")
	}
	// Second access to the same unit: no second expansion.
	c.Access(5*4096+64, false, nil)
	eng.Run()
	if c.Stats().Expansions.Value() != 1 {
		t.Fatal("hot unit expanded twice")
	}
}

func TestWritebackExpandsButIsPosted(t *testing.T) {
	c, eng, _ := newTMCC(t, 128)
	done := false
	c.Access(7*4096, true, func() { done = true })
	// The write's done must fire without waiting for the expansion, which
	// needs simulated time (CTE fetch first, then expansion).
	eng.Run()
	if !done {
		t.Fatal("write never acknowledged")
	}
	if c.Level(7) != mc.ML1 {
		t.Fatal("writeback must still expand the unit (Section II-B)")
	}
}

func TestWarmMatchesTimedStateMachine(t *testing.T) {
	cA, engA, _ := newTMCC(t, 128)
	cB, _, _ := newTMCC(t, 128)
	rng := rand.New(rand.NewSource(9))
	addrs := make([]uint64, 300)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(32<<20)) &^ 63
	}
	for _, a := range addrs {
		cA.Access(a, false, nil)
		engA.Run()
		cB.Warm(a, false)
	}
	a0, a1, a2 := cA.LevelCounts()
	b0, b1, b2 := cB.LevelCounts()
	if a0 != b0 || a1 != b1 || a2 != b2 {
		t.Fatalf("timed (%d/%d/%d) and functional (%d/%d/%d) state diverged",
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

func TestPerfectCTENeverMisses(t *testing.T) {
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192))
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
		PerfectCTE:      true,
	})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		c.Access(uint64(rng.Intn(32<<20))&^63, false, nil)
		eng.Run()
	}
	if c.Stats().CTEMisses.Value() != 0 {
		t.Fatal("perfect CTE cache missed")
	}
	if c.Stats().HitRate() != 1.0 {
		t.Fatal("hit rate must be 1")
	}
}

func TestSmallerCacheLowerHitRate(t *testing.T) {
	run := func(kb int) float64 {
		c, _, _ := newTMCC(t, kb)
		rng := rand.New(rand.NewSource(77))
		// Working set larger than the small cache's reach: random pages
		// within 24MB of the footprint.
		for i := 0; i < 30000; i++ {
			c.Warm(uint64(rng.Intn(24<<20))&^63, false)
		}
		return c.Stats().HitRate()
	}
	small := run(8)
	big := run(512)
	if small >= big {
		t.Fatalf("8KB CTE cache hit rate %.3f not below 512KB %.3f", small, big)
	}
}

func TestTranslationReachMatchesPaper(t *testing.T) {
	// 128KB cache, 64B blocks, 8 CTEs per block, 4KB per CTE = 64MB reach.
	c, _, _ := newTMCC(t, 128)
	blocks := c.CTE.Config().Lines()
	reach := uint64(blocks) * 8 * 4096
	if reach != 64<<20 {
		t.Fatalf("unified reach = %dMB, want 64MB", reach>>20)
	}
}

func TestAdaptiveCompressionMaintainsWatermark(t *testing.T) {
	c, eng, _ := newTMCC(t, 128)
	rng := rand.New(rand.NewSource(13))
	// Touch many distinct units to force expansions past the free target.
	for i := 0; i < 8000; i++ {
		c.Access(uint64(rng.Intn(32<<20))&^63, false, nil)
		if i%64 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if c.Space.FreeFrameBytes() < c.P.FreeTargetBytes/2 {
		t.Fatalf("free frames %dKB collapsed far below target %dKB",
			c.Space.FreeFrameBytes()>>10, c.P.FreeTargetBytes>>10)
	}
	if c.Stats().Compressions.Value() == 0 {
		t.Fatal("adaptive compression never ran")
	}
}

func TestCoarseGranularityFewerMissesMoreTraffic(t *testing.T) {
	runG := func(gran uint64) (hitRate float64, migBytes uint64) {
		eng := engine.New()
		d := dram.NewController(eng, dram.DDR4(1, 1, 192))
		c := New(mc.Params{
			Eng: eng, DRAM: d,
			OSBytes:         32 << 20,
			Granularity:     gran,
			SizeModel:       comp.NewSizeModel(3, 3.4),
			CTECacheBytes:   4 << 10, // small cache so reach matters
			FreeTargetBytes: 1 << 20,
		})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 1500; i++ {
			c.Access(uint64(rng.Intn(32<<20))&^63, false, nil)
			if i%8 == 0 {
				eng.Run()
			}
		}
		eng.Run()
		return c.Stats().HitRate(), d.Stats().ClassBytes(dram.ClassMigration)
	}
	hit4, mig4 := runG(4 << 10)
	hit16, mig16 := runG(16 << 10)
	if hit16 <= hit4 {
		t.Fatalf("16KB granularity hit rate %.3f not above 4KB %.3f (reach should grow)", hit16, hit4)
	}
	if mig16 <= mig4 {
		t.Fatalf("16KB granularity migration traffic %d not above 4KB %d", mig16, mig4)
	}
}

func TestReadLatencyObserved(t *testing.T) {
	c, eng, _ := newTMCC(t, 128)
	c.Access(0, false, nil)
	eng.Run()
	if c.Stats().ReadLatency.Count() != 1 {
		t.Fatal("read latency not recorded")
	}
	if c.Stats().ReadLatency.Mean() < 280 {
		t.Fatalf("first-touch read latency %.0fns should include decompression",
			c.Stats().ReadLatency.Mean())
	}
}
