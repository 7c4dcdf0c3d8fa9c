package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the parallel experiment executor. The flow is:
//
//  1. Plan: every selected experiment is dry-run against a planning Runner
//     whose get() records cell keys and returns zero results, yielding the
//     exact cell set the real run will need, in first-request order.
//     Planning is cheap (no simulation) and sound because experiments
//     enumerate their cells from static loops, never from prior results.
//  2. Warm: each planned cell is handed to a goroutine; the single-flight
//     cache ensures exactly one simulation per unique key and the jobs
//     semaphore bounds how many execute at once. Planned cells that share
//     a system.WarmKey share one functional warmup (warm.go).
//  3. Merge: experiment functions run concurrently, block on the in-flight
//     cells they need, and their output blocks are collected into a slice
//     indexed by registration order — so the merged output is deterministic
//     regardless of cell or experiment completion order.
//
// Parallel execution cannot change any reported number: each system.Run is
// hermetic (internal/system), so a cell's Result is a pure function of its
// key plus the Runner config, independent of scheduling. pool_test.go pins
// this with a jobs=1 vs jobs=N byte-equivalence test.

// ExecOptions configures a parallel experiment run.
type ExecOptions struct {
	// Jobs bounds concurrent simulations; <=0 means GOMAXPROCS.
	Jobs int
	// Progress, when set, is called after each cell settles with the
	// number of settled cells and the planned total. Calls are serialized;
	// the callback must not call back into the Runner.
	Progress func(done, total int)
	// Context, when set, gates cell starts: canceling it drains the pool
	// gracefully (running cells finish and checkpoint, queued cells fail
	// fast) so partial results stay exportable.
	Context context.Context
	// CellTimeout arms the per-cell watchdog (0 = no watchdog).
	CellTimeout time.Duration
	// Retries bounds per-cell retries of transient failures, spaced by
	// attempt*RetryBackoff.
	Retries      int
	RetryBackoff time.Duration
}

// ExperimentOutput is one experiment's outcome from RunExperiments.
type ExperimentOutput struct {
	Experiment Experiment
	// Blocks is the experiment's rendered output, nil if it failed.
	Blocks []string
	// Err reports a failed cell (with its key) or an experiment panic.
	Err error
}

// RunExperiments executes the selected experiments over the runner's
// configuration with up to opts.Jobs concurrent simulations. Outputs are
// returned in registration order. A cell that fails (unknown workload,
// simulator panic) fails the experiments that need it — with the offending
// cell's key in the error — without crashing the process or aborting
// unrelated experiments. The returned error joins all per-experiment
// failures.
func RunExperiments(r *Runner, exps []Experiment, opts ExecOptions) ([]ExperimentOutput, error) {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	r.SetJobs(jobs)
	if opts.Context != nil {
		r.SetContext(opts.Context)
	}
	if opts.CellTimeout > 0 {
		r.SetCellTimeout(opts.CellTimeout)
	}
	if opts.Retries > 0 {
		r.SetRetries(opts.Retries, opts.RetryBackoff)
	}

	plan := planCells(r.Cfg, exps)
	r.mu.Lock()
	// Planned total = cells already settled plus planned cells not yet
	// cached, so re-running experiments on a warm runner still ends with
	// done == total.
	fresh := 0
	for _, key := range plan {
		if _, ok := r.cache[key]; !ok {
			fresh++
		}
	}
	r.planned = r.done + fresh
	r.onProgress = opts.Progress
	r.mu.Unlock()
	r.holdWarm(plan)

	// Warm every planned cell. Cells an experiment needs beyond the plan
	// (a planning miss) are still simulated lazily and merely lose overlap.
	var warm sync.WaitGroup
	for _, key := range plan {
		warm.Add(1)
		go func(key runKey) {
			defer warm.Done()
			// Errors surface through the experiments that need the cell.
			_, _ = r.result(key)
		}(key)
	}

	outs := make([]ExperimentOutput, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		outs[i].Experiment = e
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if ce, ok := p.(cellError); ok {
					outs[i].Err = fmt.Errorf("experiment %s: %w", e.Name, ce.err)
					return
				}
				outs[i].Err = fmt.Errorf("experiment %s: panic: %v", e.Name, p)
			}()
			outs[i].Blocks = e.Run(r)
		}(i, e)
	}
	wg.Wait()
	warm.Wait()

	r.mu.Lock()
	r.onProgress = nil
	r.mu.Unlock()

	var errs []error
	for i := range outs {
		if outs[i].Err != nil {
			errs = append(errs, outs[i].Err)
		}
	}
	return outs, errors.Join(errs...)
}

// planCells dry-runs the experiments against a planning runner sharing cfg
// (so variant normalization matches) and returns the deduplicated cell set
// in first-request order. Experiments that panic during planning plan
// nothing further; the real run surfaces their error.
func planCells(cfg Config, exps []Experiment) []runKey {
	p := NewRunner(cfg)
	p.planning = true
	for _, e := range exps {
		func() {
			defer func() { _ = recover() }()
			e.Run(p)
		}()
	}
	return p.planOrder
}

// PlannedCell identifies one cell an experiment list will simulate. The
// serving layer sizes admission control from the plan's length (its cost
// model) and keys its per-(workload, design) circuit breakers from the
// Workload and Design fields.
type PlannedCell struct {
	Workload string
	Design   string
	Setting  string
	// Cell is the human-readable cell key (runKey.String form) — the same
	// string cell errors, the cell hook, and the cell observer carry.
	Cell string
}

// PlanExperiments dry-runs the experiment list against cfg and returns the
// exact deduplicated cell set the real run will simulate, in first-request
// order. Planning is cheap: no simulation executes.
func PlanExperiments(cfg Config, exps []Experiment) []PlannedCell {
	plan := planCells(cfg, exps)
	out := make([]PlannedCell, len(plan))
	for i, k := range plan {
		out[i] = PlannedCell{
			Workload: k.workload,
			Design:   k.design.String(),
			Setting:  k.setting.String(),
			Cell:     k.String(),
		}
	}
	return out
}

// FreshCost reports how many of the experiment list's planned cells are not
// yet in the runner's cache — the number of new simulations a request for
// exps would trigger right now. Cells in flight count as fresh (their cost
// is already being paid, but the caller will still wait on them); cells
// resident in an attached durable store count as free, so admission pricing
// stays accurate across a warm restart.
func (r *Runner) FreshCost(exps []Experiment) int {
	plan := planCells(r.Cfg, exps)
	r.mu.Lock()
	cp := r.checkpoint
	missing := plan[:0]
	for _, key := range plan {
		if _, ok := r.cache[key]; !ok {
			missing = append(missing, key)
		}
	}
	r.mu.Unlock()
	fresh := 0
	for _, key := range missing {
		if cp != nil && cp.Has(key) {
			continue
		}
		fresh++
	}
	return fresh
}

// RunShared executes experiments against a runner view without mutating any
// runner-global knob: no worker-pool resize, no global context, no progress
// rewiring. It is the request-scoped counterpart of RunExperiments for a
// long-lived service where many requests share one memoizing runner — each
// request wraps the shared runner with WithContext and calls RunShared, so
// its deadline gates only its own cells and waits. Outputs are returned in
// the given order; per-experiment failures are reported in the outputs, not
// joined into a process-level error.
func RunShared(r *Runner, exps []Experiment) []ExperimentOutput {
	// Warm every planned cell through the shared single-flight cache so a
	// request's cells overlap regardless of experiment structure.
	plan := planCells(r.Cfg, exps)
	r.holdWarm(plan)
	var warm sync.WaitGroup
	for _, key := range plan {
		warm.Add(1)
		go func(key runKey) {
			defer warm.Done()
			// Errors surface through the experiments that need the cell.
			_, _ = r.result(key)
		}(key)
	}

	outs := make([]ExperimentOutput, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		outs[i].Experiment = e
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if ce, ok := p.(cellError); ok {
					outs[i].Err = fmt.Errorf("experiment %s: %w", e.Name, ce.err)
					return
				}
				outs[i].Err = fmt.Errorf("experiment %s: panic: %v", e.Name, p)
			}()
			outs[i].Blocks = e.Run(r)
		}(i, e)
	}
	wg.Wait()
	warm.Wait()
	return outs
}
