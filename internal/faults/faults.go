// Package faults is the deterministic fault-injection layer used to prove
// the robustness subsystem works: that the invariant auditor
// (internal/invariant + the AuditInvariants walks in internal/mc) catches
// every class of silent memory-controller state corruption, and that the
// experiment pool (internal/harness) contains every class of cell failure.
//
// It has two halves:
//
//   - MC-state corruption (this file): a seeded Plan of Ops, each naming a
//     corruption Class, a pseudo-random target unit, and a position inside
//     the timed simulation window. internal/system schedules the ops on the
//     event engine, so injection is exactly reproducible for a given seed.
//
//   - Harness cell faults (cells.go): a CellInjector that scripts panics,
//     hangs, and errors into the worker pool's cell execution path,
//     exercising the watchdog, panic capture, and failure eviction.
//
// Nothing in the production simulation path depends on this package;
// injection only happens when a test or the CI fault smoke asks for it.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
)

// Class enumerates the MC state-corruption classes the auditor must catch.
type Class int

// The corruption classes (ISSUE 3 acceptance list).
const (
	// LevelCorruption flips a unit's memory level without migrating data.
	LevelCorruption Class = iota
	// ShortCTECorruption breaks the short-CTE <-> group-slot agreement.
	ShortCTECorruption
	// FreeFrameLeak makes a free frame unreachable from the Free List.
	FreeFrameLeak
	// TableDesync corrupts frame-ownership/residency metadata.
	TableDesync
)

// String names the class.
func (c Class) String() string {
	switch c {
	case LevelCorruption:
		return "level-corruption"
	case ShortCTECorruption:
		return "short-cte-corruption"
	case FreeFrameLeak:
		return "free-frame-leak"
	case TableDesync:
		return "table-desync"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes returns every corruption class.
func Classes() []Class {
	return []Class{LevelCorruption, ShortCTECorruption, FreeFrameLeak, TableDesync}
}

// Target is the corruption surface, implemented by mc.Base and therefore by
// every design embedding it (TMCC, DyLeCT, the naive design).
type Target interface {
	NumUnits() uint64
	InjectLevelCorruption(u uint64) string
	InjectShortCTECorruption(u uint64) string
	InjectFreeFrameLeak() (string, bool)
	InjectTableDesync(u uint64) string
}

// Op is one scheduled corruption: a class, a target unit (reduced modulo
// the target's unit count at injection time), and a position inside the
// timed window expressed as a fraction (0 = window start, 1 = end) so the
// same plan applies to any window length. Events sets an alternative
// trigger: inject once the engine has executed at least that many events
// (0 = use AtFrac). Both triggers are deterministic under the single-
// threaded event engine.
type Op struct {
	Class  Class
	Unit   uint64
	AtFrac float64
	Events uint64
}

// Plan is a seeded, deterministic corruption schedule plus the record of
// what was actually injected (for tests to match auditor output against).
type Plan struct {
	Seed int64
	Ops  []Op

	mu      sync.Mutex
	applied []string
}

// NewPlan builds a plan with one op per given class (all classes when none
// are named). Target units are drawn from a rand.Rand seeded with seed, and
// ops are spread evenly across the middle of the timed window, so two runs
// with the same seed inject byte-identically.
func NewPlan(seed int64, classes ...Class) *Plan {
	if len(classes) == 0 {
		classes = Classes()
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	for i, c := range classes {
		p.Ops = append(p.Ops, Op{
			Class:  c,
			Unit:   rng.Uint64() >> 1,
			AtFrac: float64(i+1) / float64(len(classes)+1),
		})
	}
	return p
}

// Apply performs one op against the target and records what was corrupted.
// It returns the corruption description (empty if the op was a no-op, e.g.
// leaking a free frame when none is free).
func (p *Plan) Apply(t Target, op Op) string {
	var desc string
	switch op.Class {
	case LevelCorruption:
		desc = t.InjectLevelCorruption(op.Unit)
	case ShortCTECorruption:
		desc = t.InjectShortCTECorruption(op.Unit)
	case FreeFrameLeak:
		d, ok := t.InjectFreeFrameLeak()
		if !ok {
			return ""
		}
		desc = d
	case TableDesync:
		desc = t.InjectTableDesync(op.Unit)
	default:
		return ""
	}
	p.mu.Lock()
	p.applied = append(p.applied, op.Class.String()+": "+desc)
	p.mu.Unlock()
	return desc
}

// Applied returns descriptions of every corruption performed so far, in
// injection order.
func (p *Plan) Applied() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.applied...)
}
