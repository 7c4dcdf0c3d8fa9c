package harness

import (
	"context"
	"sync"

	"dylect/internal/system"
)

// Shared functional warmup. Cells that differ only in design, setting, or
// MC knobs share a system.WarmKey, and the CPU half of their warmup is
// identical (system.Prewarm). RunExperiments and RunShared take one
// reference per planned cell that is not yet cached; the first such cell to
// execute computes the key's WarmState under its own worker slot, the rest
// wait for it without holding a slot, and every cell replays the state
// through system.RunWarmE. A cell drops its references when it settles, and
// the state is dropped with the last one, so a settled runner retains no
// WarmState. Cells outside a plan (Result, ExecuteCell) compute privately
// through system.RunE.

// warmFlight is one WarmKey's shared state.
type warmFlight struct {
	refs    int           // planned, unsettled cells that need the state
	running bool          // a cell is computing the state
	done    chan struct{} // closed when the running computation ends
	ws      *system.WarmState
}

// warmHold is a cell's share of a warmFlight: its key and how many plans
// counted the cell.
type warmHold struct {
	key system.WarmKey
	n   int
}

// warmClaim obliges its cell to compute the state for the cells waiting on
// it. publish settles it once; a claim settled without a state hands the
// computation to the next waiter.
type warmClaim struct {
	r    *Runner
	f    *warmFlight
	once sync.Once
}

func (c *warmClaim) publish(ws *system.WarmState) {
	if c == nil {
		return
	}
	c.once.Do(func() {
		c.r.mu.Lock()
		c.f.ws = ws
		c.f.running = false
		close(c.f.done)
		c.r.mu.Unlock()
	})
}

// holdWarm takes a WarmState reference for every planned cell that is not
// yet cached. Cells whose options do not resolve hold nothing; they fail
// on their own when they run. A runner that executes cells remotely warms
// nothing locally and holds nothing.
func (r *Runner) holdWarm(plan []runKey) {
	r.mu.Lock()
	var fresh []runKey
	if r.remote == nil {
		for _, key := range plan {
			if _, cached := r.cache[key]; !cached {
				fresh = append(fresh, key)
			}
		}
	}
	r.mu.Unlock()
	if len(fresh) == 0 {
		return
	}
	keys := make(map[runKey]system.WarmKey, len(fresh))
	for _, key := range fresh {
		opts, err := r.cellOptions(key)
		if err != nil {
			continue
		}
		if wk, err := system.WarmKeyOf(opts); err == nil {
			keys[key] = wk
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range fresh {
		wk, ok := keys[key]
		if _, cached := r.cache[key]; cached || !ok {
			continue
		}
		if r.warm == nil {
			r.warm = make(map[system.WarmKey]*warmFlight)
			r.warmHolds = make(map[runKey]warmHold)
		}
		f := r.warm[wk]
		if f == nil {
			f = &warmFlight{}
			r.warm[wk] = f
		}
		f.refs++
		h := r.warmHolds[key]
		h.key = wk
		h.n++
		r.warmHolds[key] = h
	}
}

// releaseWarmLocked drops a settled cell's references, and the state with
// the last one. Once no cell holds anything the maps themselves go, so a
// settled runner keeps not even their buckets. r.mu must be held.
func (r *Runner) releaseWarmLocked(key runKey) {
	h, ok := r.warmHolds[key]
	if !ok {
		return
	}
	delete(r.warmHolds, key)
	if f := r.warm[h.key]; f != nil {
		if f.refs -= h.n; f.refs <= 0 {
			delete(r.warm, h.key)
		}
	}
	if len(r.warmHolds) == 0 {
		r.warm, r.warmHolds = nil, nil
	}
}

// sharedWarm resolves a cell's WarmState before the cell takes a worker
// slot. It returns the computed state; or a claim, when the caller must
// compute it; or neither, when the cell holds no reference and computes
// privately. Waiting on another cell's computation holds no slot and ends
// with ctx.
func (r *Runner) sharedWarm(ctx context.Context, key runKey) (*system.WarmState, *warmClaim, error) {
	for {
		r.mu.Lock()
		h, ok := r.warmHolds[key]
		if !ok {
			r.mu.Unlock()
			return nil, nil, nil
		}
		f := r.warm[h.key]
		if f.ws != nil {
			r.mu.Unlock()
			return f.ws, nil, nil
		}
		if !f.running {
			f.running = true
			f.done = make(chan struct{})
			r.mu.Unlock()
			return nil, &warmClaim{r: r, f: f}, nil
		}
		done := f.done
		r.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}
