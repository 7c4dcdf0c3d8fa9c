package system

import (
	"fmt"
	"reflect"
	"testing"

	"dylect/internal/engine"
	"dylect/internal/trace"
)

var allDesigns = []Design{DesignNoComp, DesignTMCC, DesignDyLeCT, DesignNaive}

// pageModes are the three warmup shapes the paper's cells use: huge pages
// (no walk hints), 4KB pages, and 4KB pages with TMCC's PTB-embedded CTEs.
var pageModes = []struct {
	name      string
	hugePages bool
	embedPTB  bool
}{{"2M", true, false}, {"4K", false, false}, {"4K+embedPTB", false, true}}

func warmOpts(t *testing.T, workload string, d Design, hugePages, embedPTB bool) Options {
	t.Helper()
	w, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("workload %s not found", workload)
	}
	setting := SettingHigh
	if d == DesignNoComp {
		setting = SettingNone // the baseline needs DRAM for the whole footprint
	}
	return Options{
		Workload:       w,
		Design:         d,
		Setting:        setting,
		HugePages:      hugePages,
		EmbedPTB:       embedPTB,
		ScaleDivisor:   32,
		WarmupAccesses: 10_000,
		Window:         10 * engine.Microsecond,
		Seed:           3,
		Audit:          true,
	}
}

// inPlace runs opts the way the simulator did before warmup was shared:
// the system warms its own translator as it goes.
func inPlace(t *testing.T, opts Options) *Result {
	t.Helper()
	w, cfg, err := sized(opts)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		gens[i] = w.NewGenerator(i, opts.Seed+1)
	}
	r, err := assemble(opts, gens)
	if err != nil {
		t.Fatal(err)
	}
	r.s.Warmup(opts.WarmupAccesses)
	res, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSharedWarmStateMatchesInPlaceWarmup: for every design and page mode,
// on a shared-footprint graph kernel and an instanced workload, replaying
// one shared WarmState gives the Result in-place warmup gives, field by
// field, with the invariant auditor on. RunE (private WarmState) must agree
// too.
func TestSharedWarmStateMatchesInPlaceWarmup(t *testing.T) {
	for _, wl := range []string{"bfs", "mcf"} {
		for _, pm := range pageModes {
			ws, err := Prewarm(warmOpts(t, wl, DesignNoComp, pm.hugePages, pm.embedPTB))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range allDesigns {
				t.Run(fmt.Sprintf("%s/%s/%s", wl, pm.name, d), func(t *testing.T) {
					opts := warmOpts(t, wl, d, pm.hugePages, pm.embedPTB)
					want := inPlace(t, opts)
					shared, err := RunWarmE(opts, ws)
					if err != nil {
						t.Fatal(err)
					}
					private, err := RunE(opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(shared, want) {
						t.Errorf("shared WarmState result differs from in-place warmup:\n got %+v\nwant %+v", *shared, *want)
					}
					if !reflect.DeepEqual(private, want) {
						t.Errorf("RunE result differs from in-place warmup:\n got %+v\nwant %+v", *private, *want)
					}
				})
			}
		}
	}
}

// teeSink records the translator calls of an in-place warmup while
// forwarding them.
type teeSink struct {
	rec recorder
	to  warmSink
}

func (s *teeSink) Warm(line uint64, write bool) {
	s.rec.Warm(line, write)
	s.to.Warm(line, write)
}

func (s *teeSink) WalkHint(pa uint64) {
	s.rec.WalkHint(pa)
	s.to.WalkHint(pa)
}

// cpuState is the comparable CPU side of a warmed system.
type cpuState struct {
	L3      any
	Touched []uint64
	Cores   []any
}

func cpuOf(s *System) cpuState {
	st := cpuState{L3: s.l3, Touched: s.touched}
	for _, c := range s.cores {
		st.Cores = append(st.Cores, []any{c.tlb, c.walker, c.l1, c.l2, c.nlL1, c.stL1, c.stL2})
	}
	return st
}

// TestWarmStateDesignIndependent is the metamorphic property the sharing
// rests on: warming a system in place under each of the four translators
// leaves identical CPU-side state, generator positions, and translator call
// streams — all equal to what Prewarm computes with no translator at all.
func TestWarmStateDesignIndependent(t *testing.T) {
	for _, wl := range []string{"bfs", "mcf"} {
		for _, pm := range pageModes[:2] {
			ref, err := Prewarm(warmOpts(t, wl, DesignNoComp, pm.hugePages, false))
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.stream) == 0 {
				t.Fatalf("%s/%s: empty translator call stream", wl, pm.name)
			}
			for _, d := range allDesigns {
				opts := warmOpts(t, wl, d, pm.hugePages, false)
				w, cfg, err := sized(opts)
				if err != nil {
					t.Fatal(err)
				}
				mixes := make([]*trace.Mix, cfg.Cores)
				gens := make([]trace.Generator, cfg.Cores)
				for i := range gens {
					mixes[i] = w.NewCountedMix(i, opts.Seed+1)
					gens[i] = mixes[i]
				}
				r, err := assemble(opts, gens)
				if err != nil {
					t.Fatal(err)
				}
				tee := &teeSink{to: sinkFor(r.s.Trans)}
				r.s.warm(opts.WarmupAccesses, tee)
				name := fmt.Sprintf("%s/%s/%s", wl, pm.name, d)
				if !reflect.DeepEqual(cpuOf(r.s), cpuOf(ref.cpu)) {
					t.Errorf("%s: CPU-side state differs from Prewarm's", name)
				}
				if !reflect.DeepEqual(tee.rec.stream, ref.stream) {
					t.Errorf("%s: translator call stream differs from Prewarm's (%d vs %d calls)",
						name, len(tee.rec.stream), len(ref.stream))
				}
				for i, m := range mixes {
					if !reflect.DeepEqual(m.Snapshot(), ref.gens[i]) {
						t.Errorf("%s: core %d generator position differs from Prewarm's", name, i)
					}
				}
			}
		}
	}
}

func TestRunWarmERejectsForeignWarmState(t *testing.T) {
	ws, err := Prewarm(warmOpts(t, "bfs", DesignTMCC, true, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		warmOpts(t, "bfs", DesignTMCC, false, false), // page size
		warmOpts(t, "mcf", DesignTMCC, true, false),  // workload
		func() Options { o := warmOpts(t, "bfs", DesignTMCC, true, false); o.Seed++; return o }(),
		func() Options { o := warmOpts(t, "bfs", DesignTMCC, true, false); o.WarmupAccesses++; return o }(),
		func() Options { o := warmOpts(t, "bfs", DesignTMCC, true, false); o.ScaleDivisor = 16; return o }(),
	} {
		if _, err := RunWarmE(opts, ws); err == nil {
			t.Errorf("RunWarmE accepted a WarmState for %s under WarmKey %s", ws.key, mustKey(t, opts))
		}
	}
	// The design, setting, and MC knobs are not part of the key.
	o := warmOpts(t, "bfs", DesignNaive, true, false)
	o.Setting, o.CTECacheBytes, o.Ranks = SettingLow, 8<<10, 16
	if _, err := RunWarmE(o, ws); err != nil {
		t.Errorf("RunWarmE rejected a design-only variation: %v", err)
	}
}

func mustKey(t *testing.T, opts Options) WarmKey {
	t.Helper()
	k, err := WarmKeyOf(opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// countSink is an allocation-free warmSink.
type countSink struct{ warms, hints int }

func (c *countSink) Warm(uint64, bool) { c.warms++ }
func (c *countSink) WalkHint(uint64)   { c.hints++ }

// TestReplayAllocFree: replaying a recorded stream costs no allocation per
// call; a cell's replay allocates only what its translator does.
func TestReplayAllocFree(t *testing.T) {
	ws, err := Prewarm(warmOpts(t, "bfs", DesignTMCC, false, false))
	if err != nil {
		t.Fatal(err)
	}
	var sink countSink
	if n := testing.AllocsPerRun(10, func() { replay(ws.stream, &sink) }); n != 0 {
		t.Fatalf("replaying %d calls allocated %.1f times, want 0", len(ws.stream), n)
	}
	if sink.hints == 0 || sink.warms == 0 {
		t.Fatalf("replay delivered %d warms and %d hints; want both", sink.warms, sink.hints)
	}
}
