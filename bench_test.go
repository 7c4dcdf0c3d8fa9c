package dylect

// One benchmark per regenerated table/figure. Each bench executes its
// experiment end-to-end on a reduced configuration (two workloads, small
// footprints) so `go test -bench=.` regenerates every result in minutes;
// use cmd/dylectsim with the full configuration for EXPERIMENTS.md-grade
// numbers.

import (
	"testing"

	"dylect/internal/harness"
	"dylect/internal/system"
)

// benchConfig is a minimal-but-meaningful harness configuration.
func benchConfig() HarnessConfig {
	return HarnessConfig{
		Workloads:      []string{"bfs", "canneal"},
		ScaleDivisor:   16,
		FootprintFloor: 96 << 20,
		WarmupAccesses: 100_000,
		Window:         40 * Microsecond,
	}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := harness.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	cells := 0
	for i := 0; i < b.N; i++ {
		runner := harness.NewRunner(benchConfig())
		blocks := exp.Run(runner)
		if len(blocks) == 0 {
			b.Fatal("experiment produced no output")
		}
		cells += runner.Runs()
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkNaive(b *testing.B)  { benchExperiment(b, "naive") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }

// BenchmarkSimulatedMicrosecond measures raw simulator throughput: wall
// time per simulated microsecond of the full system under DyLeCT. The
// CPU-side warmup is computed once before the timer starts, so each
// iteration times only what a cell sharing a warm state pays: system
// build, translator warmup replay, the timed window and result collection.
func BenchmarkSimulatedMicrosecond(b *testing.B) {
	w, _ := WorkloadByName("bfs")
	opts := RunOptions{
		Workload:       w,
		Design:         DesignDyLeCT,
		Setting:        SettingHigh,
		HugePages:      true,
		ScaleDivisor:   16,
		FootprintFloor: 96 << 20,
		CTECacheBytes:  8 << 10,
		WarmupAccesses: 50_000,
		Window:         Microsecond * 20,
	}
	ws, err := system.Prewarm(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := system.RunWarmE(opts, ws)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}
