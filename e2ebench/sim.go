package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dylect/internal/engine"
	"dylect/internal/harness"
)

// serveTime is how long a simulating workload, and every traced run,
// runs restart cycles of the service over its settled cells: long enough
// that a few hundred milliseconds of host noise move no percentile much.
const serveTime = 5 * time.Second

// recordedSeed is the seed whose export digests are recorded below. At any
// other seed the runs of one invocation must agree with each other.
const recordedSeed = 1

// simLoad describes the cell set a workload settles.
type simLoad struct {
	workloads []string
	// warmup and window override harness.Quick when non-zero.
	warmup uint64
	window engine.Time
	// exps names the experiments; nil selects every registered one.
	exps []string
	// digest is the SHA-256 of the harness export at recordedSeed.
	digest string
	// store attaches a fresh cell store to every settle.
	store bool
}

// sweepCold regenerates every registered experiment on bfs, the graph
// generator with an irregular frontier. Functional warmup is most of its
// host time, so it is where warmup-side work shows.
var sweepCold = simLoad{
	workloads: []string{"bfs"},
	digest:    "c95b910048f16cc0d68b5de557dd8ff3490f5d53232dac8bff0408e5e0233b65",
	store:     true,
}

// windowLong runs every design on the two generators the sweep leaves out,
// with a short warmup and a 1 ms timed window, so the timed window (engine,
// translator, DRAM) is most of its host time.
var windowLong = simLoad{
	workloads: []string{"mcf", "canneal"},
	warmup:    50_000,
	window:    engine.Millisecond,
	exps:      []string{"fig17", "naive"},
	digest:    "87ad3a95a712c4ffb62dddfebb8018f3c91ee59072d1f15d9b3ab03e49cf97cf",
}

// serveStore is the cell set serve-warm's setup writes to the worker's store.
// The service only reads the records, so short cells keep setup cheap.
var serveStore = simLoad{
	workloads: []string{"omnetpp"},
	warmup:    20_000,
	window:    20 * engine.Microsecond,
	store:     true,
}

func (l simLoad) config(o *options) harness.Config {
	cfg := harness.Quick()
	cfg.Workloads = l.workloads
	cfg.Seed = o.seed
	if l.warmup > 0 {
		cfg.WarmupAccesses = l.warmup
	}
	if l.window > 0 {
		cfg.Window = l.window
	}
	if o.tiny {
		cfg.WarmupAccesses = 2_000
		cfg.Window = 2 * engine.Microsecond
	}
	return cfg
}

func (l simLoad) experiments() ([]harness.Experiment, error) {
	if l.exps == nil {
		return harness.Experiments(), nil
	}
	var out []harness.Experiment
	for _, n := range l.exps {
		e, ok := harness.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		out = append(out, e)
	}
	return out, nil
}

func names(exps []harness.Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.Name
	}
	return out
}

// settled is one settle of a cell set.
type settled struct {
	runner *harness.Runner
	cp     *harness.Checkpoint // nil when no store was attached
	wall   time.Duration
	export []byte
	cells  int
	failed int
	insts  uint64
}

// cellTiming records, per cell, when the harness started the attempt (the
// SetCellHook call) and how the cell settled (SetCellTelemetry), so queue
// wait and execution separate without reading WallNS raw.
type cellTiming struct {
	mu      sync.Mutex
	started map[string]time.Time
	queueMS []float64
	execMS  []float64
}

func (ct *cellTiming) hook(key string) error {
	ct.mu.Lock()
	ct.started[key] = time.Now()
	ct.mu.Unlock()
	return nil
}

func (ct *cellTiming) settle(s harness.CellSettlement) {
	end := time.Now()
	begin := end.Add(-time.Duration(s.WallNS))
	ct.mu.Lock()
	defer ct.mu.Unlock()
	at, ok := ct.started[s.Key]
	if !ok || s.FromStore || s.Remote {
		return // no attempt ran here: nothing to split
	}
	ct.queueMS = append(ct.queueMS, ms(at.Sub(begin)))
	ct.execMS = append(ct.execMS, ms(end.Sub(at)))
}

// settle runs the experiments on a fresh runner with two jobs, writing
// every cell to a fresh store in storeDir when it is not empty, and exports
// the results. The clock covers store open, simulation, puts and export.
// A non-nil ct splits each cell's time into queue wait and execution.
func settle(cfg harness.Config, exps []harness.Experiment, storeDir string, ct *cellTiming) (*settled, error) {
	s := &settled{}
	var mu sync.Mutex
	start := time.Now()
	r := harness.NewRunner(cfg)
	if storeDir != "" {
		cp, err := harness.OpenCheckpointStore(storeDir, cfg, harness.StoreOptions{Log: io.Discard})
		if err != nil {
			return nil, err
		}
		r.AttachCheckpoint(cp)
		s.cp = cp
	}
	r.SetCellTelemetry(func(st harness.CellSettlement) {
		mu.Lock()
		s.cells++
		if st.Err != nil {
			s.failed++
		}
		mu.Unlock()
		if ct != nil {
			ct.settle(st)
		}
	})
	if ct != nil {
		r.SetCellHook(ct.hook)
	}
	_, runErr := harness.RunExperiments(r, exps, harness.ExecOptions{Jobs: 2})
	export, err := r.ExportJSON()
	s.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	s.runner, s.export = r, export
	if runErr != nil && s.failed == 0 {
		// An experiment failed without a failed cell: count it once.
		s.failed = 1
	}
	var rows []harness.RawResult
	if err := json.Unmarshal(export, &rows); err != nil {
		return nil, fmt.Errorf("export does not decode: %w", err)
	}
	for _, row := range rows {
		s.insts += row.Insts
	}
	return s, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkExports checks the settles' exports: at the recorded seed each must
// carry the recorded digest, and at every seed all must be identical.
func checkExports(o *options, l simLoad, oc *outcome, runs []*settled) {
	for i, s := range runs {
		d := digest(s.export)
		fmt.Fprintf(o.log, "e2ebench: settle %d: %d cells in %.2fs, export sha256 %s\n",
			i+1, s.cells, s.wall.Seconds(), d)
		if !o.tiny && o.seed == recordedSeed && l.digest != "" && d != l.digest {
			oc.fail("export digest %s, recorded %s at seed %d", d, l.digest, recordedSeed)
		}
		if !bytes.Equal(s.export, runs[0].export) {
			oc.fail("settle %d export differs from settle 1", i+1)
		}
	}
}

// persisted is a cell store holding a settled runner's cells, plus the
// specs and canonical payloads that went into it.
type persisted struct {
	dir      string
	specs    []harness.CellSpec
	payloads [][]byte
}

// persist copies a settled runner's cells into a fresh store at dir the way
// a fabric coordinator adopts worker payloads: a second runner executes
// each cell remotely through ref.ExecuteCell, which answers from ref's memo,
// and adopts the payload into its own store. The second runner's export
// must equal ref's.
func persist(cfg harness.Config, exps []harness.Experiment, ref *settled, dir string, oc *outcome) (*persisted, error) {
	cp, err := harness.OpenCheckpointStore(dir, cfg, harness.StoreOptions{Log: io.Discard})
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	p := &persisted{dir: dir}
	var mu sync.Mutex
	r := harness.NewRunner(cfg)
	r.AttachCheckpoint(cp)
	r.SetRemoteExecutor(func(ctx context.Context, spec harness.CellSpec) ([]byte, error) {
		payload, err := ref.runner.ExecuteCell(ctx, spec)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		p.specs = append(p.specs, spec)
		p.payloads = append(p.payloads, payload)
		mu.Unlock()
		return payload, nil
	})
	if _, err := harness.RunExperiments(r, exps, harness.ExecOptions{Jobs: 2}); err != nil {
		return nil, err
	}
	export, err := r.ExportJSON()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(export, ref.export) {
		oc.fail("store copy export differs from the settled export")
	}
	if cp.Stored() != len(p.specs) || r.Runs() != 0 {
		oc.fail("store copy stored %d of %d cells and simulated %d", cp.Stored(), len(p.specs), r.Runs())
	}
	return p, nil
}

// runSim measures a simulating workload: cold settles for the measured time
// (at least one), then restart cycles of the service over the settled
// cells' store.
func runSim(o *options, oc *outcome, l simLoad) error {
	cfg := l.config(o)
	exps, err := l.experiments()
	if err != nil {
		return err
	}
	if o.traced {
		return traceLoad(o, oc, l, cfg, exps)
	}

	// Set-up: a runner and the plan of the cell set. It takes well under a
	// millisecond, so it is repeated and the median reported.
	var setups []float64
	for i := 0; i < 101; i++ {
		t := time.Now()
		_ = harness.NewRunner(cfg)
		if len(harness.PlanExperiments(cfg, exps)) == 0 {
			return fmt.Errorf("experiments plan no cells")
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	oc.set("setup_s", median(setups))

	// Settle until the measured time is up, finishing the settle in
	// progress.
	var runs []*settled
	var walls []float64
	begin := time.Now()
	for len(runs) == 0 || (!o.tiny && time.Since(begin) < o.seconds) {
		dir := ""
		if l.store {
			dir = filepath.Join(o.scratch, fmt.Sprintf("settle-%d", len(runs)))
		}
		s, err := settle(cfg, exps, dir, nil)
		if err != nil {
			return err
		}
		if s.cp != nil {
			if s.cp.Stored() != s.cells || s.runner.Runs() != s.cells {
				oc.fail("settle simulated %d and stored %d of %d cells", s.runner.Runs(), s.cp.Stored(), s.cells)
			}
			s.cp.Close()
		}
		oc.attempted += s.cells
		oc.failed += s.failed
		runs = append(runs, s)
		walls = append(walls, s.wall.Seconds())
	}
	oc.set("wall_s", median(walls))
	checkExports(o, l, oc, runs)

	ref := runs[0]
	runs = nil
	p, err := persist(cfg, exps, ref, filepath.Join(o.scratch, "served"), oc)
	if err != nil {
		return err
	}
	sv := newServeLoad(o, cfg, names(exps), ref.runner)
	if err := sv.run(p.dir, serveTime); err != nil {
		return err
	}
	sv.report(oc)
	// The heap the settled runner holds: its memo and anything it caches.
	// Everything else stays reachable across both readings.
	held := liveHeapMB()
	ref.runner, sv.ref = nil, nil
	oc.set("retained_heap_mb", held-liveHeapMB())
	runtime.KeepAlive(ref)
	runtime.KeepAlive(sv)
	runtime.KeepAlive(p)
	return nil
}

func runSweepCold(o *options, oc *outcome) error  { return runSim(o, oc, sweepCold) }
func runWindowLong(o *options, oc *outcome) error { return runSim(o, oc, windowLong) }
