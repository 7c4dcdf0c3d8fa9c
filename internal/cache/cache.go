// Package cache implements the set-associative caches used throughout the
// simulator: the CPU's L1/L2/L3 data caches, the per-core page-walker
// caches, and the memory controller's CTE cache (which stores 64B blocks
// from the unified CTE table and — under DyLeCT — the pre-gathered table in
// a single structure). It also provides the next-line (with automatic
// enable/disable) and stride prefetchers from Table 3.
package cache

import (
	"fmt"

	"dylect/internal/stats"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Lines returns the number of cache lines.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Lines()%c.Assoc != 0 || c.Lines() < c.Assoc {
		return fmt.Errorf("cache: %d lines not divisible into %d-way sets", c.Lines(), c.Assoc)
	}
	return nil
}

// invalidTag marks an empty way. Line addresses are byte addresses shifted
// right, and machine addresses are far below 2^64, so no real line can
// collide with the sentinel; encoding validity in the tag keeps the lookup
// scan a single comparison over a contiguous tag array.
const invalidTag = ^uint64(0)

// Cache is a set-associative, true-LRU, write-back cache keyed by line
// address. It is purely functional (no timing); latency lives in the
// system model. Way state is stored as parallel flat arrays (tags, LRU
// stamps, dirty bits) indexed by set*assoc+way: the tag scan that dominates
// simulation time then walks a dense uint64 array instead of striding
// through per-way structs.
type Cache struct {
	cfg   Config
	assoc int
	tags  []uint64 // invalidTag when the way is empty
	used  []uint64 // LRU stamp
	dirty []bool
	tick  uint64
	shift uint
	mask  uint64
	nsets uint64

	Hits   stats.Counter
	Misses stats.Counter
}

// New builds a cache; it panics on invalid geometry (a configuration bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	n := nsets * cfg.Assoc
	c := &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		tags:  make([]uint64, n),
		used:  make([]uint64, n),
		dirty: make([]bool, n),
		nsets: uint64(nsets),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for s := uint(0); (1 << s) < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	c.mask = uint64(nsets - 1)
	if nsets&(nsets-1) != 0 {
		c.mask = 0 // non-power-of-two sets: use modulo
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr converts a byte address to this cache's line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift }

// setBase returns the index of the set's first way in the flat arrays.
//
//dylect:hotpath
func (c *Cache) setBase(line uint64) int {
	if c.mask != 0 {
		return int(line&c.mask) * c.assoc
	}
	return int(line%c.nsets) * c.assoc
}

// Access looks up the line containing addr, updating LRU and hit/miss
// statistics. On a write hit the line is marked dirty.
//
//dylect:hotpath
func (c *Cache) Access(addr uint64, write bool) bool {
	line := c.LineAddr(addr)
	base := c.setBase(line)
	c.tick++
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == line {
			c.used[i] = c.tick
			if write {
				c.dirty[i] = true
			}
			c.Hits.Inc()
			return true
		}
	}
	c.Misses.Inc()
	return false
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or statistics.
//
//dylect:hotpath
func (c *Cache) Probe(addr uint64) bool {
	line := c.LineAddr(addr)
	base := c.setBase(line)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == line {
			return true
		}
	}
	return false
}

// Fill inserts the line containing addr (marking it dirty if requested) and
// returns the evicted victim, if any. Filling an already-present line only
// refreshes its LRU position.
//
//dylect:hotpath
func (c *Cache) Fill(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	line := c.LineAddr(addr)
	base := c.setBase(line)
	c.tick++
	lru := base
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == line {
			c.used[i] = c.tick
			if dirty {
				c.dirty[i] = true
			}
			return 0, false, false
		}
		if c.tags[i] == invalidTag {
			lru = i
		}
	}
	if c.tags[lru] != invalidTag { // no invalid way found; find true LRU
		for i := base; i < base+c.assoc; i++ {
			if c.used[i] < c.used[lru] {
				lru = i
			}
		}
	}
	vTag, vDirty := c.tags[lru], c.dirty[lru]
	c.tags[lru] = line
	c.dirty[lru] = dirty
	c.used[lru] = c.tick
	if vTag != invalidTag {
		return vTag << c.shift, vDirty, true
	}
	return 0, false, false
}

// Invalidate drops the line containing addr if present, returning whether it
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	line := c.LineAddr(addr)
	base := c.setBase(line)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == line {
			d := c.dirty[i]
			c.tags[i] = invalidTag
			c.dirty[i] = false
			c.used[i] = 0
			return d, true
		}
	}
	return false, false
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	return stats.Ratio(c.Hits.Value(), c.Hits.Value()+c.Misses.Value())
}

// ResetStats zeroes hit/miss counters (cache contents stay warm), used at
// the boundary between functional warmup and the timed window.
func (c *Cache) ResetStats() {
	c.Hits.Reset()
	c.Misses.Reset()
}

// CopyFrom overwrites c's contents, LRU state, and statistics with src's.
// The geometries must match; it panics otherwise (a wiring bug).
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom between geometries %+v and %+v", src.cfg, c.cfg))
	}
	copy(c.tags, src.tags)
	copy(c.used, src.used)
	copy(c.dirty, src.dirty)
	c.tick = src.tick
	c.Hits = src.Hits
	c.Misses = src.Misses
}

// Occupancy returns the fraction of ways currently valid.
func (c *Cache) Occupancy() float64 {
	valid := 0
	for _, t := range c.tags {
		if t != invalidTag {
			valid++
		}
	}
	return float64(valid) / float64(len(c.tags))
}
