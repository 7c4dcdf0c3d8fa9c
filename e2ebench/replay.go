package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"dylect/internal/cache"
	"dylect/internal/cellstore"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/tlb"
	"dylect/internal/trace"
)

// The per-call costs of the cache, TLB, DRAM, engine and cell-store layers
// come from replaying streams recorded from the workload's own inputs into
// each package's exported API, one goroutine at a time, so every
// allocation count is exact and repeats from run to run:
//
//   - each core's trace.Generator, seeded as in the cells, feeds per-core
//     TLBs and L1/L2 caches; what misses L2 is the L3's stream, and what
//     misses L3 is the DRAM's;
//   - DRAM requests replay that miss stream with the cores' combined
//     miss window in flight, and the engine replays the DRAM's observed
//     latencies as event delays;
//   - the cell store replays the workload's own cell payloads.
//
// Hit and miss rates come from the traced cells instead: they are the
// simulator's own counters over each timed window.

// replayAccesses is the number of accesses recorded per core and workload.
const replayAccesses = 150_000

// replayHugePages maps the replayed footprints with 2MB pages, as most
// figures' cells do.
const replayHugePages = true

// timed runs fn once and returns the host nanoseconds and heap allocations
// it took.
func timed(fn func()) (ns float64, allocs uint64) {
	a := mallocs()
	t := time.Now()
	fn()
	ns = float64(time.Since(t).Nanoseconds())
	return ns, mallocs() - a
}

// streams are the recorded per-layer input streams.
type streams struct {
	vas      [][]uint64 // per core: every access's virtual address
	tlbMiss  [][]uint64 // per core: addresses whose lookup missed
	l3       []uint64   // lines that missed L2
	l3Miss   []uint64   // lines that missed L3
	pts      []*tlb.PageTable
	dramCfg  dram.Config
	dramSpan uint64
}

// record drives each workload's generators through per-core TLBs and
// L1/L2 caches with the geometry of system.Default.
func record(cfg harness.Config, perCore int) (*streams, error) {
	sc := system.Default()
	st := &streams{}
	l3 := cache.New(sc.L3)
	for _, name := range cfg.Workloads {
		w, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		sz, err := sizeCell(system.Options{Workload: w, Setting: system.SettingHigh,
			ScaleDivisor: cfg.ScaleDivisor, FootprintFloor: cfg.FootprintFloor})
		if err != nil {
			return nil, err
		}
		if st.dramSpan == 0 {
			st.dramCfg = dram.DDR4(1, sz.ranks, sz.rowsPerBank)
			st.dramSpan = st.dramCfg.TotalBytes()
		}
		pt := tlb.NewPageTable(sz.w.FootprintBytes, replayHugePages, 0, sz.w.FootprintBytes)
		st.pts = append(st.pts, pt)
		var a trace.Access
		for c := 0; c < sc.Cores; c++ {
			gen := sz.w.NewGenerator(c, cfg.Seed+1)
			t := tlb.NewTLB(sc.TLBEntries, sc.TLBAssoc)
			l1, l2 := cache.New(sc.L1), cache.New(sc.L2)
			vas := make([]uint64, 0, perCore)
			var miss []uint64
			for i := 0; i < perCore; i++ {
				gen.Next(&a)
				vas = append(vas, a.VA)
				if !t.Lookup(a.VA) {
					miss = append(miss, a.VA)
					t.Insert(a.VA, replayHugePages)
				}
				line := pt.Translate(a.VA) &^ 63
				if l1.Access(line, a.Write) {
					continue
				}
				if l2.Access(line, false) {
					l1.Fill(line, a.Write)
					continue
				}
				st.l3 = append(st.l3, line)
				if !l3.Access(line, false) {
					st.l3Miss = append(st.l3Miss, line)
					l3.Fill(line, false)
				}
				l2.Fill(line, false)
				l1.Fill(line, a.Write)
			}
			st.vas = append(st.vas, vas)
			st.tlbMiss = append(st.tlbMiss, miss)
		}
	}
	if len(st.l3) == 0 || len(st.l3Miss) == 0 {
		return nil, fmt.Errorf("recorded streams never reach L3 or DRAM")
	}
	return st, nil
}

// replayLayers times each layer's replay and sets its per-layer metrics.
func replayLayers(o *options, oc *outcome, cfg harness.Config, p *persisted) error {
	perCore := replayAccesses
	if o.tiny {
		perCore = 5_000
	}
	st, err := record(cfg, perCore)
	if err != nil {
		return err
	}
	sc := system.Default()

	// Cache: L3 lookups over the L2-miss stream on an L3 the stream has
	// warmed, and fills of the L3-miss stream into an empty L3.
	warm := cache.New(sc.L3)
	for _, line := range st.l3 {
		if !warm.Access(line, false) {
			warm.Fill(line, false)
		}
	}
	accNS, accAllocs := timed(func() {
		for _, line := range st.l3 {
			warm.Access(line, false)
		}
	})
	cold := cache.New(sc.L3)
	fillNS, fillAllocs := timed(func() {
		for _, line := range st.l3Miss {
			cold.Fill(line, false)
		}
	})
	oc.set("cache.l3_access_ns", accNS/float64(len(st.l3)))
	oc.set("cache.l3_fill_ns", fillNS/float64(len(st.l3Miss)))
	oc.set("cache.allocs_per_op", float64(accAllocs+fillAllocs)/float64(len(st.l3)+len(st.l3Miss)))

	// TLB: lookups of every access on TLBs the stream has warmed; walks of
	// the missing addresses through fresh walkers.
	var lookups, walks int
	var lookNS, walkNS float64
	var walkAllocs uint64
	for ci, vas := range st.vas {
		t := tlb.NewTLB(sc.TLBEntries, sc.TLBAssoc)
		for _, va := range vas {
			if !t.Lookup(va) {
				t.Insert(va, replayHugePages)
			}
		}
		ns, _ := timed(func() {
			for _, va := range vas {
				t.Lookup(va)
			}
		})
		lookNS += ns
		lookups += len(vas)
		pt := st.pts[ci/sc.Cores]
		wk := tlb.NewWalker(pt, sc.WalkerCacheBytes)
		miss := st.tlbMiss[ci]
		ns, allocs := timed(func() {
			for _, va := range miss {
				wk.Walk(va)
			}
		})
		walkNS += ns
		walkAllocs += allocs
		walks += len(miss)
	}
	oc.set("tlb.lookup_ns", ratio(lookNS, float64(lookups)))
	oc.set("tlb.walk_ns", ratio(walkNS, float64(walks)))
	oc.set("tlb.allocs_per_walk", ratio(float64(walkAllocs), float64(walks)))

	replayEngine(oc, replayDRAM(oc, st, sc), sc.Cores*sc.MaxOutstanding)
	return replayStore(o, oc, cfg, p)
}

// replayDRAM submits the L3-miss stream to a DRAM controller sized like the
// workload's high-compression cells, keeping the cores' combined miss
// window in flight, and returns each request's simulated latency.
func replayDRAM(oc *outcome, st *streams, sc system.Config) []engine.Time {
	eng := engine.New()
	d := dram.NewController(eng, st.dramCfg)
	reqs := make([]dram.Request, len(st.l3Miss))
	lat := make([]engine.Time, len(reqs))
	next := 0
	var submit func()
	for i, line := range st.l3Miss {
		reqs[i].Addr = line % st.dramSpan
		reqs[i].Done = func(now engine.Time) {
			lat[i] = now - lat[i]
			submit()
		}
	}
	submit = func() {
		if next < len(reqs) {
			lat[next] = eng.Now()
			d.Submit(&reqs[next])
			next++
		}
	}
	ns, allocs := timed(func() {
		for i := 0; i < sc.Cores*sc.MaxOutstanding; i++ {
			submit()
		}
		eng.Run()
	})
	oc.set("dram.submit_ns", ns/float64(len(reqs)))
	oc.set("dram.allocs_per_request", float64(allocs)/float64(len(reqs)))
	return lat
}

// replayEngine runs chains of events, one per in-flight DRAM request, whose
// delays cycle through the replayed DRAM latencies, until as many events
// have run as there were latencies.
func replayEngine(oc *outcome, delays []engine.Time, chains int) {
	eng := engine.New()
	scheduled := 0
	fns := make([]func(), chains)
	for c := range fns {
		fns[c] = func() {
			if scheduled < len(delays) {
				d := delays[scheduled]
				scheduled++
				eng.Schedule(d, fns[c])
			}
		}
	}
	ns, allocs := timed(func() {
		for _, fn := range fns {
			fn()
		}
		eng.Run()
	})
	n := float64(eng.Executed())
	oc.set("engine.event_ns", ratio(ns, n))
	oc.set("engine.allocs_per_event", ratio(float64(allocs), n))
}

// replayStore puts the workload's cell payloads into a fresh store, then
// reads each back several times through a second open of it; every read
// must return the bytes that were put.
func replayStore(o *options, oc *outcome, cfg harness.Config, p *persisted) error {
	opts := cellstore.Options{Dir: filepath.Join(o.scratch, "replay-store"), Schema: system.SchemaVersion, Log: io.Discard}
	s, err := cellstore.Open(opts)
	if err != nil {
		return err
	}
	hash := harness.ConfigHash(cfg)
	keys := make([]string, len(p.specs))
	var putNS float64
	for i, spec := range p.specs {
		if keys[i], err = harness.PayloadKey(hash, spec); err != nil {
			return err
		}
		t := time.Now()
		if err := s.Put(keys[i], p.payloads[i]); err != nil {
			return err
		}
		putNS += float64(time.Since(t).Nanoseconds())
	}
	if err := s.Close(); err != nil {
		return err
	}
	if s, err = cellstore.Open(opts); err != nil {
		return err
	}
	defer s.Close()
	const passes = 5
	got := make([][]byte, 0, passes*len(keys))
	getNS, allocs := timed(func() {
		for pass := 0; pass < passes; pass++ {
			for _, k := range keys {
				b, _ := s.Get(k)
				got = append(got, b)
			}
		}
	})
	for i, b := range got {
		if !bytes.Equal(b, p.payloads[i%len(keys)]) {
			oc.fail("cell store read of %s returned other bytes than were put", keys[i%len(keys)])
			break
		}
	}
	n := float64(len(got))
	oc.set("cellstore.put_ms", ratio(putNS/1e6, float64(len(keys))))
	oc.set("cellstore.get_us", ratio(getNS/1e3, n))
	oc.set("cellstore.allocs_per_get", ratio(float64(allocs), n))
	return nil
}
