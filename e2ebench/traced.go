package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"dylect/internal/comp"
	"dylect/internal/core"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/invariant"
	"dylect/internal/mc"
	"dylect/internal/naive"
	"dylect/internal/system"
	"dylect/internal/tlb"
	"dylect/internal/tmcc"
	"dylect/internal/trace"
)

// The traced run rebuilds every cell of the workload from the simulator's
// exported constructors, the way system.RunE assembles it, with timing
// decorators around each core's trace.Generator and around the
// mc.Translator. It times the four phases of each cell from outside and
// fails unless the rebuilt cell's Result equals the one RunE produced.

// callStat counts calls to one decorated method and the host time inside
// them.
type callStat struct {
	calls uint64
	ns    int64
}

func (c *callStat) since(t time.Time) {
	c.calls++
	c.ns += int64(time.Since(t))
}

// timedGen times a core's Next calls.
type timedGen struct {
	inner trace.Generator
	stat  *callStat
}

func (g timedGen) Next(a *trace.Access) {
	t := time.Now()
	g.inner.Next(a)
	g.stat.since(t)
}

// timedTrans times the translator's functional (Warm) and timed (Access)
// entry points. Access is timed to its return: the part of a request the
// caller waits for synchronously, not the later completion callback.
type timedTrans struct {
	inner        mc.Translator
	warm, access callStat
}

func (t *timedTrans) Access(addr uint64, write bool, done func()) {
	s := time.Now()
	t.inner.Access(addr, write, done)
	t.access.since(s)
}

func (t *timedTrans) Warm(addr uint64, write bool) {
	s := time.Now()
	t.inner.Warm(addr, write)
	t.warm.since(s)
}

func (t *timedTrans) Stats() *mc.Stats { return t.inner.Stats() }

// compressed is the optional surface system and RunE type-assert on the
// designs built over mc.Base: level and space introspection and the
// invariant auditor. A decorator must forward exactly the surface its inner
// translator has, or the rebuilt cell would report different numbers.
type compressed interface {
	LevelCounts() (uint64, uint64, uint64)
	SpaceUsage() (uint64, uint64, uint64, uint64)
	CompressionRatio() float64
	invariant.Auditable
}

// walkHinter is the optional PTB-embedding hint system forwards after a
// page walk.
type walkHinter interface{ WalkHint(addr uint64) }

type timedCompressed struct {
	*timedTrans
	compressed
}

type timedHinted struct {
	timedCompressed
	walkHinter
}

// decorate wraps a translator in a timing decorator with the same optional
// surface.
func decorate(inner mc.Translator) (mc.Translator, *timedTrans, error) {
	t := &timedTrans{inner: inner}
	c, isCompressed := inner.(compressed)
	h, hints := inner.(walkHinter)
	_, levels := inner.(interface {
		LevelCounts() (uint64, uint64, uint64)
	})
	_, audits := inner.(invariant.Auditable)
	if levels != isCompressed || audits != isCompressed || (hints && !isCompressed) {
		return nil, nil, fmt.Errorf("translator %T has an optional surface the decorator cannot forward", inner)
	}
	switch {
	case hints:
		return timedHinted{timedCompressed{t, c}, h}, t, nil
	case isCompressed:
		return timedCompressed{t, c}, t, nil
	}
	return t, t, nil
}

// cellOptions maps a harness cell spec onto the options the harness hands
// system.RunE for it.
func cellOptions(cfg harness.Config, spec harness.CellSpec) (system.Options, error) {
	w, ok := trace.ByName(spec.Workload)
	if !ok {
		return system.Options{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	o := system.Options{
		Workload:       w,
		HugePages:      spec.HugePages,
		CTECacheBytes:  spec.CTECacheBytes,
		Granularity:    spec.Granularity,
		GroupSize:      spec.GroupSize,
		PerfectCTE:     spec.PerfectCTE,
		EmbedPTB:       spec.EmbedPTB,
		Ranks:          spec.Ranks,
		WarmupAccesses: cfg.WarmupAccesses,
		Window:         cfg.Window,
		ScaleDivisor:   cfg.ScaleDivisor,
		FootprintFloor: cfg.FootprintFloor,
		Seed:           cfg.Seed,
	}
	found := false
	for _, d := range []system.Design{system.DesignNoComp, system.DesignTMCC, system.DesignDyLeCT, system.DesignNaive} {
		if d.String() == spec.Design {
			o.Design, found = d, true
		}
	}
	for _, s := range []system.Setting{system.SettingLow, system.SettingHigh, system.SettingNone} {
		if s.String() == spec.Setting {
			o.Setting = s
		}
	}
	if !found || o.Setting.String() != spec.Setting {
		return system.Options{}, fmt.Errorf("cell %s: unknown design or setting", spec.CellKey())
	}
	if o.Design == system.DesignDyLeCT {
		c := core.DefaultConfig()
		c.SamplePeriod = spec.SamplePeriod
		c.DirectToML0 = spec.DirectToML0
		o.DyLeCT = &c
	}
	return o, nil
}

// sizing is a cell's scaled footprint and DRAM geometry, derived as RunE
// derives them.
type sizing struct {
	w           trace.Workload
	ranks       int
	dramBytes   uint64
	rowsPerBank uint64
}

func sizeCell(o system.Options) (sizing, error) {
	div := o.ScaleDivisor
	if div == 0 {
		div = 1
	}
	w := o.Workload
	w.FootprintBytes /= div
	if floor := min(o.Workload.FootprintBytes, o.FootprintFloor); w.FootprintBytes < floor {
		w.FootprintBytes = floor
	}
	w.FootprintBytes &^= (8 << 20) - 1
	if w.FootprintBytes == 0 {
		return sizing{}, fmt.Errorf("workload %q footprint scaled away", w.Name)
	}
	ranks := o.Ranks
	if ranks == 0 {
		ranks = 8
		if o.Setting == system.SettingNone {
			ranks = 16
		}
	}
	var want uint64
	switch o.Setting {
	case system.SettingLow:
		want = uint64(float64(w.FootprintBytes) * w.LowDRAMFrac)
	case system.SettingHigh:
		want = uint64(float64(w.FootprintBytes) * w.HighDRAMFrac)
	default:
		want = w.FootprintBytes + w.FootprintBytes/64 + (32 << 20)
	}
	perRow := uint64(ranks) * 16 * (8 << 10)
	rows := max((want+perRow-1)/perRow, 1)
	return sizing{w: w, ranks: ranks, dramBytes: rows * perRow, rowsPerBank: rows}, nil
}

// nameHash is the FNV-style hash RunE seeds a workload's page-size model
// with.
func nameHash(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// rig is one assembled, decorated cell.
type rig struct {
	sys    *system.System
	trans  *timedTrans
	gens   *callStat
	window engine.Time
	dram   uint64
}

func build(o system.Options) (*rig, error) {
	sz, err := sizeCell(o)
	if err != nil {
		return nil, err
	}
	cfg := system.Default()
	cfg.HugePages = o.HugePages
	w := sz.w
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, sz.ranks, sz.rowsPerBank))
	pt := tlb.NewPageTable(w.FootprintBytes, cfg.HugePages, 0, w.FootprintBytes)
	freeTarget := min(uint64(16<<20), sz.dramBytes/32)
	params := mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         w.FootprintBytes,
		Granularity:     o.Granularity,
		SizeModel:       comp.NewSizeModel(uint64(nameHash(w.Name)), w.CompressRatio),
		CTECacheBytes:   o.CTECacheBytes,
		GroupSize:       o.GroupSize,
		PerfectCTE:      o.PerfectCTE,
		EmbedPTB:        o.EmbedPTB,
		FreeTargetBytes: freeTarget,
	}
	var inner mc.Translator
	switch o.Design {
	case system.DesignNoComp:
		inner = mc.NewNoComp(eng, d, w.FootprintBytes)
	case system.DesignTMCC:
		inner = tmcc.New(params)
	case system.DesignDyLeCT:
		dcfg := core.DefaultConfig()
		if o.DyLeCT != nil {
			dcfg = *o.DyLeCT
		}
		inner = core.New(params, dcfg)
	case system.DesignNaive:
		inner = naive.New(params)
	default:
		return nil, fmt.Errorf("unknown design %v", o.Design)
	}
	tr, tt, err := decorate(inner)
	if err != nil {
		return nil, err
	}
	stat := &callStat{}
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		gens[i] = timedGen{inner: w.NewGenerator(i, o.Seed+1), stat: stat}
	}
	window := o.Window
	if window == 0 {
		window = 300 * engine.Microsecond
	}
	return &rig{sys: system.New(cfg, eng, d, tr, pt, gens), trans: tt, gens: stat, window: window, dram: sz.dramBytes}, nil
}

// collect reads the finished system into a Result field by field, as RunE
// does.
func (r *rig) collect() *system.Result {
	s, window := r.sys, r.window
	ts := s.Trans.Stats()
	ds := s.DRAM.Stats()
	res := &system.Result{
		Window:             window,
		Events:             s.Eng.Executed(),
		Insts:              s.Insts(),
		IPC:                s.IPC(window),
		MemRefs:            s.MemRefs(),
		L3Misses:           s.L3Misses(),
		TLBMissRate:        s.TLBMissRate(),
		Walks:              s.Walks.Value(),
		WalkHints:          ts.WalkHints.Value(),
		Faults:             s.Faults.Value(),
		WalkDRAMRefs:       s.WalkMem.Value(),
		WalkerCacheHitRate: s.WalkerCacheHitRate(),
		WalkRefsPerWalk:    s.WalkRefsPerWalk(),
		CTEHitRate:         ts.HitRate(),
		CTEMisses:          ts.CTEMisses.Value(),
		CTEBlockFetches:    ts.CTEBlockFetches.Value(),
		ReadLatencyNS:      ts.ReadLatency.Mean(),
		DRAMBytes:          r.dram,
		TrafficBytes:       ds.TotalBytes(),
		CTETrafficBytes:    ds.ClassBytes(dram.ClassCTE),
		MigrationBytes:     ds.ClassBytes(dram.ClassMigration),
		DemandBytes:        ds.ClassBytes(dram.ClassDemand),
		BusUtilization:     ds.Utilization(window),
		DRAMRowHitRate:     ds.RowHitRate(),
		EnergyPJ:           ds.EnergyPJ(s.DRAM.Config(), window),
		Expansions:         ts.Expansions.Value(),
		Compressions:       ts.Compressions.Value(),
		Promotions:         ts.Promotions.Value(),
		Demotions:          ts.Demotions.Value(),
		Displacements:      ts.Displacements.Value(),
		EmergencyStalls:    ts.EmergencyStalls.Value(),
		PressureStuck:      ts.PressureStuck.Value(),
	}
	if req := ts.Requests.Value(); req > 0 {
		res.PreGatheredRate = float64(ts.PreGatheredHits.Value()) / float64(req)
		res.UnifiedRate = float64(ts.UnifiedHits.Value()) / float64(req)
	}
	if c, ok := s.Trans.(compressed); ok {
		res.ML0, res.ML1, res.ML2 = c.LevelCounts()
		res.ML0Bytes, res.ML1Bytes, res.ML2Bytes, res.FreeBytes = c.SpaceUsage()
		res.CompressionRatio = c.CompressionRatio()
	}
	return res
}

// tracer accumulates the traced cells of one run.
type tracer struct {
	outerNS, innerNS float64 // calibrated timer cost per decorated call

	cells                             int
	buildNS, warmNS, timedNS, collNS  float64   // net of decorator cost
	rawNS                             []float64 // per cell, decorators included
	overhead                          float64   // traced over untraced host time
	warmAccesses, events              uint64
	warmAllocs, timedAllocs           uint64
	nextWarm, nextTimed, warm, access callStat
	insts                             uint64
	cteHits, cteLookups               uint64
	l3Hits, l3Lookups                 uint64
	tlbMisses, tlbLookups             float64
	rowHits, rowAccesses              uint64
	violations                        int
}

// newTracer calibrates the cost of the decorators' timer pair: outer is the
// host time one decorated call adds, inner the part of it that lands inside
// the measured interval. Both are medians of repeated loops.
func newTracer() *tracer {
	var outs, ins []float64
	const n = 200_000
	for rep := 0; rep < 7; rep++ {
		var st callStat
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			st.since(t)
		}
		outs = append(outs, float64(time.Since(t0).Nanoseconds())/n)
		ins = append(ins, float64(st.ns)/n)
	}
	return &tracer{outerNS: median(outs), innerNS: median(ins)}
}

// decodeResult reads the Result out of a canonical cell payload.
func decodeResult(payload []byte) (*system.Result, error) {
	var rec struct {
		Result *system.Result `json:"result"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Result == nil {
		return nil, fmt.Errorf("payload carries no result (%v)", err)
	}
	return rec.Result, nil
}

// cell rebuilds, runs and checks one cell against want, the Result RunE
// produced for it.
func (tr *tracer) cell(cfg harness.Config, spec harness.CellSpec, want *system.Result, oc *outcome) error {
	o, err := cellOptions(cfg, spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	r, err := build(o)
	if err != nil {
		return err
	}
	buildNS := float64(time.Since(t0).Nanoseconds())

	a0 := mallocs()
	t1 := time.Now()
	if o.WarmupAccesses > 0 {
		r.sys.Warmup(o.WarmupAccesses)
	}
	warmNS := float64(time.Since(t1).Nanoseconds())
	a1 := mallocs()
	nextWarm, warm := *r.gens, r.trans.warm

	t2 := time.Now()
	r.sys.ResetStats()
	r.sys.Run(r.window)
	timedNS := float64(time.Since(t2).Nanoseconds())
	a2 := mallocs()
	nextTimed := callStat{r.gens.calls - nextWarm.calls, r.gens.ns - nextWarm.ns}

	t3 := time.Now()
	got := r.collect()
	collNS := float64(time.Since(t3).Nanoseconds())

	// The end-of-run audit is read-only and reaches the translator through
	// the decorator's forwarded surface. Violations are reported, not
	// failed: the harness runs cells without the auditor.
	if a, ok := r.sys.Trans.(invariant.Auditable); ok {
		if vs := a.AuditInvariants(); len(vs) > 0 {
			tr.violations += len(vs)
			fmt.Fprintf(os.Stderr, "e2ebench: cell %s: %v\n", spec.CellKey(), &invariant.Error{Phase: "end-of-run", Violations: vs})
		}
	}
	ref := *want
	ref.Opts = system.Options{}
	if !reflect.DeepEqual(*got, ref) {
		oc.fail("cell %s: traced result differs from system.RunE's (events %d/%d, insts %d/%d, IPC %v/%v, CTE hit %v/%v, DRAM bytes %d/%d, ML0-2 %d,%d,%d/%d,%d,%d)",
			spec.CellKey(), got.Events, ref.Events, got.Insts, ref.Insts, got.IPC, ref.IPC,
			got.CTEHitRate, ref.CTEHitRate, got.TrafficBytes, ref.TrafficBytes,
			got.ML0, got.ML1, got.ML2, ref.ML0, ref.ML1, ref.ML2)
	}

	wrapped := float64(nextWarm.calls + warm.calls)
	timedWrapped := float64(nextTimed.calls + r.trans.access.calls)
	tr.cells++
	tr.rawNS = append(tr.rawNS, buildNS+warmNS+timedNS+collNS)
	tr.buildNS += buildNS
	tr.warmNS += max(warmNS-wrapped*tr.outerNS, 0)
	tr.timedNS += max(timedNS-timedWrapped*tr.outerNS, 0)
	tr.collNS += collNS
	tr.warmAccesses += o.WarmupAccesses * uint64(system.Default().Cores)
	tr.events += got.Events
	tr.warmAllocs += a1 - a0
	tr.timedAllocs += a2 - a1
	add := func(dst *callStat, src callStat) {
		dst.calls += src.calls
		dst.ns += src.ns
	}
	add(&tr.nextWarm, nextWarm)
	add(&tr.nextTimed, nextTimed)
	add(&tr.warm, warm)
	add(&tr.access, r.trans.access)
	tr.insts += got.Insts
	ts := r.sys.Trans.Stats()
	tr.cteHits += ts.CTEHits.Value()
	tr.cteLookups += ts.CTEHits.Value() + ts.CTEMisses.Value()
	l3 := r.sys.L3()
	tr.l3Hits += l3.Hits.Value()
	tr.l3Lookups += l3.Hits.Value() + l3.Misses.Value()
	tr.tlbMisses += got.TLBMissRate * float64(got.MemRefs)
	tr.tlbLookups += float64(got.MemRefs)
	ds := r.sys.DRAM.Stats()
	tr.rowHits += ds.RowHits.Value()
	tr.rowAccesses += ds.RowHits.Value() + ds.RowMisses.Value() + ds.RowClosed.Value()
	return nil
}

// inside is the host time spent inside decorated calls, net of the timer.
func (tr *tracer) inside(c callStat) float64 {
	return max(float64(c.ns)-float64(c.calls)*tr.innerNS, 0)
}

func (tr *tracer) report(oc *outcome) {
	n := float64(max(tr.cells, 1))
	next := callStat{tr.nextWarm.calls + tr.nextTimed.calls, tr.nextWarm.ns + tr.nextTimed.ns}
	oc.set("system.cells", float64(tr.cells))
	oc.set("system.build_ms", tr.buildNS/n/1e6)
	oc.set("system.warmup_ms", tr.warmNS/n/1e6)
	oc.set("system.timed_ms", tr.timedNS/n/1e6)
	oc.set("system.collect_ms", tr.collNS/n/1e6)
	oc.set("system.warmup_ns_per_access", ratio(tr.warmNS, float64(tr.warmAccesses)))
	oc.set("system.timed_ns_per_event", ratio(tr.timedNS, float64(tr.events)))
	oc.set("system.warmup_self_ms", max(tr.warmNS-tr.inside(tr.nextWarm)-tr.inside(tr.warm), 0)/n/1e6)
	oc.set("system.timed_self_ms", max(tr.timedNS-tr.inside(tr.nextTimed)-tr.inside(tr.access), 0)/n/1e6)
	oc.set("system.allocs_per_event", ratio(float64(tr.timedAllocs), float64(tr.events)))
	oc.set("system.allocs_per_warmup_access", ratio(float64(tr.warmAllocs), float64(tr.warmAccesses)))
	oc.set("system.trace_overhead_ratio", tr.overhead)
	oc.set("trace.next_calls", float64(next.calls))
	oc.set("trace.next_ns", ratio(tr.inside(next), float64(next.calls)))
	oc.set("mc.warm_calls", float64(tr.warm.calls))
	oc.set("mc.warm_ns", ratio(tr.inside(tr.warm), float64(tr.warm.calls)))
	oc.set("mc.access_calls", float64(tr.access.calls))
	oc.set("mc.access_ns", ratio(tr.inside(tr.access), float64(tr.access.calls)))
	oc.set("mc.cte_hit_rate", ratio(float64(tr.cteHits), float64(tr.cteLookups)))
	oc.set("cache.l3_hit_rate", ratio(float64(tr.l3Hits), float64(tr.l3Lookups)))
	oc.set("tlb.miss_rate", ratio(tr.tlbMisses, tr.tlbLookups))
	oc.set("dram.row_hit_rate", ratio(float64(tr.rowHits), float64(tr.rowAccesses)))
	oc.set("engine.events", float64(tr.events))
	oc.set("mc.audit_violations", float64(tr.violations))
}

// overheadCells is how many cells the traced run also times untraced.
const overheadCells = 3

// traceCells rebuilds every persisted cell, one at a time in this goroutine
// so each cell's allocation count is its own, in cell-key order.
func traceCells(cfg harness.Config, p *persisted, oc *outcome) (*tracer, error) {
	idx := make([]int, len(p.specs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.specs[idx[a]].CellKey() < p.specs[idx[b]].CellKey() })
	tr := newTracer()
	for _, i := range idx {
		want, err := decodeResult(p.payloads[i])
		if err != nil {
			return nil, err
		}
		if err := tr.cell(cfg, p.specs[i], want, oc); err != nil {
			return nil, err
		}
	}
	// Tracing overhead: the first few cells again through system.RunE with
	// nothing attached, in the same goroutine.
	var traced, plain float64
	for k, i := range idx[:min(overheadCells, len(idx))] {
		o, err := cellOptions(cfg, p.specs[i])
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := system.RunE(o); err != nil {
			return nil, err
		}
		plain += float64(time.Since(t).Nanoseconds())
		traced += tr.rawNS[k]
	}
	tr.overhead = ratio(traced, plain)
	return tr, nil
}

// traceLoad is the traced run shared by every workload: one settle with the
// harness's cell hooks attached, the traced rebuild of its cells, the layer
// replays over its streams and store, and restart cycles of the service
// over its cells.
func traceLoad(o *options, oc *outcome, l simLoad, cfg harness.Config, exps []harness.Experiment) error {
	var plans []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		harness.PlanExperiments(cfg, exps)
		plans = append(plans, ms(time.Since(t)))
	}
	oc.set("harness.plan_ms", median(plans))

	ct := &cellTiming{started: map[string]time.Time{}}
	dir := ""
	if l.store {
		dir = filepath.Join(o.scratch, "settle")
	}
	s, err := settle(cfg, exps, dir, ct)
	if err != nil {
		return err
	}
	if s.cp != nil {
		s.cp.Close()
	}
	oc.attempted += s.cells
	oc.failed += s.failed
	checkExports(o, l, oc, []*settled{s})
	var exports []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := s.runner.ExportJSON(); err != nil {
			return err
		}
		exports = append(exports, ms(time.Since(t)))
	}
	oc.set("harness.export_ms", median(exports))
	oc.set("harness.cell_queue_ms", mean(ct.queueMS))
	oc.set("harness.cell_exec_ms", mean(ct.execMS))
	oc.set("system.minst_per_s", ratio(float64(s.insts)/1e6, s.wall.Seconds()))

	p, err := persist(cfg, exps, s, filepath.Join(o.scratch, "served"), oc)
	if err != nil {
		return err
	}
	tr, err := traceCells(cfg, p, oc)
	if err != nil {
		return err
	}
	tr.report(oc)
	if err := replayLayers(o, oc, cfg, p); err != nil {
		return err
	}

	sv := newServeLoad(o, cfg, names(exps), s.runner)
	if err := sv.run(p.dir, serveTime); err != nil {
		return err
	}
	sv.report(oc)
	return nil
}
