package faults

import (
	"fmt"
	"sync"
)

// Harness-level fault injection: scripted cell panics, hangs, and errors
// for the experiment pool. The harness exposes a per-cell hook
// (Runner.SetCellHook) that runs at the top of every cell attempt; a
// CellInjector implements that hook from a deterministic script keyed on
// cell-key substrings.

// CellFaultKind enumerates the harness failure classes the pool must
// contain.
type CellFaultKind int

// The cell failure classes.
const (
	// CellPanic panics inside the cell's worker goroutine.
	CellPanic CellFaultKind = iota
	// CellHang blocks the cell until its Release channel closes (forever
	// when nil), exercising the watchdog.
	CellHang
	// CellError returns a plain (uncoded) error, the failure class of an
	// unknown workload or a store write error.
	CellError
)

// String names the kind.
func (k CellFaultKind) String() string {
	switch k {
	case CellPanic:
		return "panic"
	case CellHang:
		return "hang"
	case CellError:
		return "error"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CellSpec scripts the failures injected into one matching cell.
type CellSpec struct {
	Kind CellFaultKind
	// Fail bounds how many attempts fail before the cell succeeds;
	// 0 means every attempt fails.
	Fail int
	// Release unblocks an injected hang when closed; nil hangs forever
	// (until the watchdog abandons the cell).
	Release <-chan struct{}
}

type cellRule struct {
	match string
	spec  CellSpec
	hits  int
}

// CellInjector scripts per-cell faults for the harness pool. Rules match on
// cell-key substrings (e.g. "omnetpp/tmcc/high"); the first matching rule
// fires. Safe for concurrent use by pool workers.
type CellInjector struct {
	mu    sync.Mutex
	rules []*cellRule
}

// NewCellInjector returns an empty injector.
func NewCellInjector() *CellInjector { return &CellInjector{} }

// Script adds a rule: cells whose key contains match suffer spec's fault.
func (ci *CellInjector) Script(match string, spec CellSpec) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.rules = append(ci.rules, &cellRule{match: match, spec: spec})
}

// Attempts reports how many attempts have hit the rule for match.
func (ci *CellInjector) Attempts(match string) int {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	for _, r := range ci.rules {
		if r.match == match {
			return r.hits
		}
	}
	return 0
}

// Hook is the harness cell hook: it injects the scripted fault for the
// given cell key, or returns nil for unmatched cells.
func (ci *CellInjector) Hook(cellKey string) error {
	ci.mu.Lock()
	var rule *cellRule
	for _, r := range ci.rules {
		if contains(cellKey, r.match) {
			rule = r
			break
		}
	}
	if rule == nil {
		ci.mu.Unlock()
		return nil
	}
	rule.hits++
	spec, hits := rule.spec, rule.hits
	ci.mu.Unlock()

	if spec.Fail > 0 && hits > spec.Fail {
		return nil // scripted failures exhausted; the cell now succeeds
	}
	switch spec.Kind {
	case CellPanic:
		panic(fmt.Sprintf("faults: injected panic in cell %s (attempt %d)", cellKey, hits))
	case CellHang:
		if spec.Release == nil {
			select {} // hang forever; only the watchdog can abandon us
		}
		<-spec.Release
		return nil
	case CellError:
		return fmt.Errorf("faults: injected error (attempt %d)", hits)
	}
	return nil
}

// contains reports whether s contains substr (strings.Contains without the
// import noise for such a tiny package... kept explicit for clarity).
func contains(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if s[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}
