package system

import (
	"runtime"
	"testing"

	"dylect/internal/engine"
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
	{DesignNoComp, SettingNone, 2.0846},
	{DesignTMCC, SettingHigh, 6.5029},
	{DesignDyLeCT, SettingHigh, 7.0291},
	{DesignNaive, SettingHigh, 13.2406},
}

const (
	allocBudgetTotal     = 7.2610
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
