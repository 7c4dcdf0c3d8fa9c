package naive

import (
	"math/rand"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
)

func newNaive(t *testing.T) (*Controller, *engine.Engine, *dram.Controller) {
	t.Helper()
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 192)) // 24MB
	c := New(mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         32 << 20,
		SizeModel:       comp.NewSizeModel(3, 3.4),
		FreeTargetBytes: 1 << 20,
	})
	return c, eng, d
}

func TestExpansionForcesGroupPlacement(t *testing.T) {
	c, _, _ := newNaive(t)
	c.Warm(0, false)
	// The naive design makes every uncompressed page use a short CTE: the
	// expanded unit must land in its group (ML0) whenever a slot was
	// claimable.
	if c.Level(0) == mc.ML0 {
		frame := c.ShortCTEFrame(0)
		base := c.GroupBase(0)
		if frame < base || frame >= base+c.P.GroupSize {
			t.Fatalf("ML0 frame %d outside group starting %d", frame, base)
		}
	} else if c.Level(0) != mc.ML1 {
		t.Fatalf("expanded unit at level %d", c.Level(0))
	}
}

func TestDoubleMovementTraffic(t *testing.T) {
	// Naive expansions move two pages when the group is occupied; compare
	// migration traffic against plain TMCC-style expansion volume.
	c, eng, d := newNaive(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i++ {
		c.Access(uint64(rng.Intn(32<<20))&^63, false, nil)
		if i%16 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	exp := c.Stats().Expansions.Value()
	if exp == 0 {
		t.Fatal("no expansions")
	}
	moved := d.Stats().ClassBytes(dram.ClassMigration)
	// A single-movement expansion moves ~(chunk + 4KB) ≈ 5.5KB; the naive
	// design adds a displacement on most expansions. Expect well above the
	// single-movement floor.
	perExp := float64(moved) / float64(exp)
	if perExp < 7000 {
		t.Fatalf("migration per expansion = %.0fB; double movement missing", perExp)
	}
	if c.Stats().Promotions.Value() == 0 {
		t.Fatal("no group placements recorded")
	}
}

func TestSplitCachesAccounting(t *testing.T) {
	c, _, _ := newNaive(t)
	c.Warm(0, false) // expands unit 0
	c.Stats().Reset()
	c.Warm(0, false)
	// Second access: uncompressed → short cache; it was filled by the
	// first access's miss path.
	if c.Stats().CTEHits.Value() != 1 {
		t.Fatalf("short-cache hit expected, hits=%d misses=%d",
			c.Stats().CTEHits.Value(), c.Stats().CTEMisses.Value())
	}
	// Another unit in the same gathered group of 8: also a short hit.
	c.Warm(3*4096, false)
	// unit 3 was compressed: it uses the long cache → cold miss.
	if c.Stats().CTEMisses.Value() != 1 {
		t.Fatalf("compressed unit should miss the long cache, misses=%d",
			c.Stats().CTEMisses.Value())
	}
}

func TestShortCacheGathersEight(t *testing.T) {
	c, _, _ := newNaive(t)
	// Expand unit 8 (units 8..15 share a gathered line).
	c.Warm(8*4096, false)
	c.Warm(9*4096, false) // expansion again (9 was ML2 → long cache path)
	c.Stats().Reset()
	// Both 8 and 9 now uncompressed; the gathered line 8/8=1 covers both.
	c.Warm(8*4096, false)
	c.Warm(9*4096, false)
	if c.Stats().CTEHits.Value() != 2 {
		t.Fatalf("gathered line should serve both units: hits=%d", c.Stats().CTEHits.Value())
	}
}

func TestHitRateAboveTMCCStyleUnifiedOnly(t *testing.T) {
	// Sanity: on a modest hot set the split caches do function as caches.
	c, _, _ := newNaive(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40000; i++ {
		u := uint64(rng.Intn(1024))
		c.Warm(u*4096+uint64(rng.Intn(64))*64, false)
	}
	if hr := c.Stats().HitRate(); hr < 0.5 {
		t.Fatalf("naive hit rate %.2f on a 4MB hot set", hr)
	}
}

func TestWarmTimedEquivalence(t *testing.T) {
	cA, engA, _ := newNaive(t)
	cB, _, _ := newNaive(t)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		a := uint64(rng.Intn(32<<20)) &^ 63
		cA.Access(a, i%4 == 0, nil)
		engA.Run()
		cB.Warm(a, i%4 == 0)
	}
	a0, a1, a2 := cA.LevelCounts()
	b0, b1, b2 := cB.LevelCounts()
	if a0 != b0 || a1 != b1 || a2 != b2 {
		t.Fatalf("timed (%d/%d/%d) vs functional (%d/%d/%d) state diverged",
			a0, a1, a2, b0, b1, b2)
	}
	a, b := lookupCounts(cA.Stats()), lookupCounts(cB.Stats())
	if a != b {
		t.Fatalf("lookup counters (hits, misses, pre-gathered, unified, block fetches) diverged: timed %v, functional %v", a, b)
	}
	if a[1] == 0 || cA.Stats().Promotions.Value() == 0 {
		t.Fatalf("the access mix never missed (%d misses) or never claimed a group slot (%d promotions)",
			a[1], cA.Stats().Promotions.Value())
	}
}

// lookupCounts is every CTE lookup counter a timed and a functional run of
// the same accesses must agree on.
func lookupCounts(s *mc.Stats) [5]uint64 {
	return [5]uint64{s.CTEHits.Value(), s.CTEMisses.Value(), s.PreGatheredHits.Value(),
		s.UnifiedHits.Value(), s.CTEBlockFetches.Value()}
}
