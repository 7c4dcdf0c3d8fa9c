package system

import (
	"fmt"

	"dylect/internal/tlb"
	"dylect/internal/trace"
)

// Functional warmup splits into two halves. The CPU half — generators,
// TLBs and walkers, L1/L2/L3, prefetchers, the first-touch bitmap — only
// *sends* calls to the translator (Warm on L3 misses and dirty writebacks,
// WalkHint after 4KB walks) and never reads anything back, so it is a pure
// function of the WarmKey. The translator half is those calls, in order.
// Prewarm computes the CPU half once and records the calls; RunWarmE copies
// the CPU state into a fresh system and replays the calls into its own
// translator. The result equals warming the system in place, whatever the
// design (warm_test.go proves it field by field; the warmpure lint contract
// keeps translator Warm/WalkHint paths from writing CPU-side state).

// WarmKey identifies a run's CPU-side warmup: everything it depends on. The
// design, compression setting, CTE cache, granularity, group size, ranks,
// and policy knobs are deliberately absent.
type WarmKey struct {
	// Workload is the workload after footprint scaling (divisor and floor
	// applied).
	Workload trace.Workload
	// Cfg is the microarchitecture, page size included.
	Cfg            Config
	Seed           int64
	WarmupAccesses uint64
}

// String renders the key's distinguishing coordinates.
func (k WarmKey) String() string {
	page := "2M"
	if !k.Cfg.HugePages {
		page = "4K"
	}
	return fmt.Sprintf("%s/%dMB/%s/seed%d/warm%d", k.Workload.Name, k.Workload.FootprintBytes>>20,
		page, k.Seed, k.WarmupAccesses)
}

// WarmKeyOf derives a run's WarmKey from its options. It fails where RunE
// would, when the footprint scales away.
func WarmKeyOf(opts Options) (WarmKey, error) {
	w, cfg, err := sized(opts)
	if err != nil {
		return WarmKey{}, err
	}
	return WarmKey{Workload: w, Cfg: cfg, Seed: opts.Seed, WarmupAccesses: opts.WarmupAccesses}, nil
}

// WarmState is the CPU half of a functional warmup: the warmed caches,
// TLBs, walkers, prefetchers and first-touch bitmap, each core's generator
// position, and the ordered translator calls the warmup made. It is
// immutable once built and safe to share between concurrent runs.
type WarmState struct {
	key    WarmKey
	cpu    *System // no engine, DRAM, or translator attached
	gens   []trace.MixState
	stream []uint64 // see recorder for the encoding
}

// Prewarm computes the CPU half of opts' functional warmup.
func Prewarm(opts Options) (*WarmState, error) {
	key, err := WarmKeyOf(opts)
	if err != nil {
		return nil, err
	}
	w, cfg := key.Workload, key.Cfg
	mixes := make([]*trace.Mix, cfg.Cores)
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		mixes[i] = w.NewCountedMix(i, opts.Seed+1)
		gens[i] = mixes[i]
	}
	pt := tlb.NewPageTable(w.FootprintBytes, cfg.HugePages, 0, w.FootprintBytes)
	cpu := newCPU(cfg, pt, gens)
	var rec recorder
	cpu.warm(opts.WarmupAccesses, &rec)
	ws := &WarmState{key: key, cpu: cpu, stream: rec.stream}
	for i, m := range mixes {
		ws.gens = append(ws.gens, m.Snapshot())
		cpu.cores[i].gen = nil // the snapshots replace the live generators
	}
	return ws, nil
}

// Stream encoding: one uint64 per translator call. Warm lines are 64-byte
// aligned, leaving the low bits free: bit 0 carries the write flag and bit
// 1 is clear. A WalkHint stores its physical address shifted left by two
// with bit 1 set (OS-physical addresses are far below 2^62).
const (
	streamWrite = 1 << 0
	streamHint  = 1 << 1
)

// recorder is the warmSink Prewarm drives: it records the call stream.
type recorder struct{ stream []uint64 }

func (r *recorder) Warm(line uint64, write bool) {
	e := line
	if write {
		e |= streamWrite
	}
	r.stream = append(r.stream, e)
}

func (r *recorder) WalkHint(pa uint64) { r.stream = append(r.stream, pa<<2|streamHint) }

// replay delivers a recorded call stream to sink, in order.
func replay(stream []uint64, sink warmSink) {
	for _, e := range stream {
		if e&streamHint != 0 {
			sink.WalkHint(e >> 2)
			continue
		}
		sink.Warm(e&^streamWrite, e&streamWrite != 0)
	}
}
