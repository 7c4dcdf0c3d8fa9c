package system

import (
	"runtime"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/core"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
	"dylect/internal/naive"
	"dylect/internal/tmcc"
	"dylect/internal/trace"
)

// The component budget tests (engine, dram, cache, mc, tlb) pin each hot
// path in isolation; this one pins what they add up to. A whole run's heap
// allocations per simulated event are a deterministic property of the code
// (no clock is involved), so a fixed cell matrix holds them to recorded
// budgets.

// allocBudgetWorkloads cover the translator behaviors the paper sweeps: an
// irregular graph frontier (bfs, heavy expansion traffic), pointer chasing
// (mcf, CTE-cache thrash) and a cache-resident kernel (canneal, steady ML0
// residency).
var allocBudgetWorkloads = []string{"bfs", "mcf", "canneal"}

// allocBudgets are the recorded allocs/event of each design at the setting
// the evaluation runs it with; allocBudgetTotal is the whole matrix's. A
// scope fails when it grows more than allocBudgetTolerance past its
// budget; a deliberate change that lowers a scope should lower its budget.
var allocBudgets = []struct {
	design  Design
	setting Setting
	budget  float64
}{
	{DesignNoComp, SettingNone, 2.0702},
	{DesignTMCC, SettingHigh, 6.0598},
	{DesignDyLeCT, SettingHigh, 6.5583},
	{DesignNaive, SettingHigh, 10.4460},
}

const (
	allocBudgetTotal     = 6.3229
	allocBudgetTolerance = 0.02
	allocBudgetReps      = 3
)

// TestRunAllocBudget runs every design × workload cell allocBudgetReps
// times, each after a GC, and keeps the fewest mallocs seen per cell:
// background noise only ever adds allocations. A cell whose event count
// differs between repetitions has lost determinism and fails outright.
func TestRunAllocBudget(t *testing.T) {
	var totalAllocs, totalEvents uint64
	for _, d := range allocBudgets {
		var allocs, events uint64
		for _, name := range allocBudgetWorkloads {
			w, ok := trace.ByName(name)
			if !ok {
				t.Fatalf("workload %s not found", name)
			}
			opts := Options{
				Workload:       w,
				Design:         d.design,
				Setting:        d.setting,
				HugePages:      true,
				ScaleDivisor:   32,
				FootprintFloor: 96 << 20,
				WarmupAccesses: 20_000,
				Window:         10 * engine.Microsecond,
			}
			cell := name + "/" + d.design.String() + "/" + d.setting.String()
			a, e := measureAllocs(t, cell, opts)
			t.Logf("%-20s events=%d allocs=%d allocs/event=%.3f", cell, e, a, float64(a)/float64(e))
			allocs += a
			events += e
		}
		checkAllocBudget(t, "design "+d.design.String(), allocs, events, d.budget)
		totalAllocs += allocs
		totalEvents += events
	}
	checkAllocBudget(t, "total", totalAllocs, totalEvents, allocBudgetTotal)
}

// measureAllocs returns the fewest mallocs over allocBudgetReps runs of
// opts and the run's event count.
func measureAllocs(t *testing.T, cell string, opts Options) (allocs, events uint64) {
	t.Helper()
	var ms runtime.MemStats
	for rep := 0; rep < allocBudgetReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r, err := RunE(opts)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		n := ms.Mallocs - before
		switch {
		case r.Events == 0:
			t.Fatalf("%s: zero events executed", cell)
		case rep == 0:
			allocs, events = n, r.Events
		case r.Events != events:
			t.Fatalf("%s: nondeterministic event count (%d then %d)", cell, events, r.Events)
		case n < allocs:
			allocs = n
		}
	}
	return allocs, events
}

func checkAllocBudget(t *testing.T, scope string, allocs, events uint64, budget float64) {
	t.Helper()
	got := float64(allocs) / float64(events)
	if got > budget*(1+allocBudgetTolerance) {
		t.Errorf("%s: %.4f allocs/event exceeds its budget %.4f by more than %.0f%% (%d allocs over %d events)",
			scope, got, budget, allocBudgetTolerance*100, allocs, events)
		return
	}
	t.Logf("%s: %.4f allocs/event (budget %.4f)", scope, got, budget)
}

// TestWarmAllocFree holds each compressed design's functional path to zero
// allocations per Warm call in steady state, on a CTE hit and on a CTE miss
// over pages that are already uncompressed (no expansion): warmup replays
// millions of Warm calls per sweep. The miss set is 64 units 512KB apart,
// visited even-indexed first, so with a 1KB CTE cache (and naive's split
// caches carved from it) every unified, pre-gathered and gathered-short
// block is evicted before its next use.
func TestWarmAllocFree(t *testing.T) {
	builds := []struct {
		name  string
		build func(mc.Params) mc.Translator
	}{
		{"tmcc", func(p mc.Params) mc.Translator { return tmcc.New(p) }},
		{"dylect", func(p mc.Params) mc.Translator { return core.New(p, core.DefaultConfig()) }},
		{"naive", func(p mc.Params) mc.Translator { return naive.New(p) }},
	}
	var missSet []uint64
	for _, parity := range []uint64{0, 1} {
		for i := parity; i < 64; i += 2 {
			missSet = append(missSet, i*128*comp.PageSize)
		}
	}
	for _, b := range builds {
		eng := engine.New()
		tr := b.build(mc.Params{
			Eng: eng, DRAM: dram.NewController(eng, dram.DDR4(1, 1, 192)), // 24MB
			OSBytes:         32 << 20,
			SizeModel:       comp.NewSizeModel(3, 3.4),
			CTECacheBytes:   1 << 10,
			FreeTargetBytes: 1 << 20,
		})
		missRound := func() {
			for _, a := range missSet {
				tr.Warm(a, false)
			}
		}
		for i := 0; i < 200; i++ { // expand, promote and settle the set
			missRound()
		}
		s := tr.Stats()
		cases := []struct {
			name       string
			run        func()
			hits, miss uint64 // per run
		}{
			{"hit", func() { tr.Warm(missSet[0], false) }, 1, 0},
			{"miss", missRound, 0, uint64(len(missSet))},
		}
		for _, c := range cases {
			const runs = 100
			c.run() // settle the CTE caches into the case's pattern
			before := *s
			if n := testing.AllocsPerRun(runs, c.run); n != 0 {
				t.Errorf("%s: Warm on a CTE %s allocated %.1f/op, want 0", b.name, c.name, n)
			}
			// AllocsPerRun makes one unmeasured call before the runs.
			hits, miss := s.CTEHits.Value()-before.CTEHits.Value(), s.CTEMisses.Value()-before.CTEMisses.Value()
			if hits != c.hits*(runs+1) || miss != c.miss*(runs+1) {
				t.Errorf("%s %s: %d hits and %d misses over %d runs, want %d and %d per run",
					b.name, c.name, hits, miss, runs+1, c.hits, c.miss)
			}
			if n := s.Expansions.Value() - before.Expansions.Value(); n != 0 {
				t.Errorf("%s %s: %d expansions; the set must already be uncompressed", b.name, c.name, n)
			}
		}
	}
}
