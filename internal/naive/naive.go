// Package naive implements the strawman dynamic-length design the paper
// quantifies in Section IV-A3, used as an ablation: every uncompressed page
// uses a short CTE (so each page expansion must displace whatever occupies
// its DRAM page group — the double-movement bandwidth problem) and short and
// long CTEs live in two separate 64KB caches. Short CTEs gathered from a
// fetched unified block share a tiny 2-byte cacheline whose tag overhead
// wastes most of the cache area (Figure 9, Option A); long CTEs get 8-byte
// lines. The paper measures this design at a 76% CTE hit rate and a 5%
// performance loss versus TMCC; DESIGN.md's ablation bench reproduces the
// comparison.
package naive

import (
	"dylect/internal/cache"
	"dylect/internal/mc"
)

// Controller is the naive dual-cache dynamic-length translator.
type Controller struct {
	*mc.Base
	// shortCache holds gathered 2B lines of eight 2-bit short CTEs. A 64KB
	// budget at ~6B per line (2B data + 4B tag) leaves ~10922 usable lines.
	shortCache *cache.Cache
	// longCache holds one 8B long CTE per line; 64KB / 8B = 8192 entries.
	longCache *cache.Cache
}

// shortLineBytes is the gathered short-CTE line: 8 pages x 2 bits.
const shortLineBytes = 2

// New builds the naive design. The CTE cache budget (Params.CTECacheBytes,
// 128KB at paper scale) is split into two equal dedicated caches, matching
// the paper's two 64KB caches; the short cache pays a 4B-tag-per-2B-line
// area overhead inside its budget (Figure 9, Option A).
func New(p mc.Params) *Controller {
	p.WithDyLeCTTables = true // short CTEs exist; reserve the side tables
	b := mc.NewBase(p)
	half := b.P.CTECacheBytes / 2
	shortLines := half / 6 // 2B data + 4B tag per line
	shortLines -= shortLines % 8
	if shortLines < 8 {
		shortLines = 8
	}
	c := &Controller{
		Base: b,
		shortCache: cache.New(cache.Config{
			SizeBytes: shortLines * shortLineBytes, LineBytes: shortLineBytes, Assoc: 8,
		}),
		longCache: cache.New(cache.Config{
			SizeBytes: half &^ 7, LineBytes: 8, Assoc: 8,
		}),
	}
	// Every expansion claims a group slot: the double movement.
	c.Bind(c, true)
	return c
}

// shortKey addresses the gathered line covering unit u's group of 8.
func (c *Controller) shortKey(u uint64) uint64 { return u / 8 * shortLineBytes }

// longKey addresses unit u's entry in the long-CTE cache namespace.
func (c *Controller) longKey(u uint64) uint64 { return u * 8 }

// LookupCTE implements mc.Design: an uncompressed unit probes the short
// cache, a compressed one the long cache. A miss fetches the unified block
// without caching it whole; CTEArrived gathers it into the split caches.
//
//dylect:hotpath
func (c *Controller) LookupCTE(u uint64) mc.CTEFetch {
	var hit bool
	if c.Level(u) != mc.ML2 {
		hit = c.shortCache.Access(c.shortKey(u), false)
	} else {
		hit = c.longCache.Access(c.longKey(u), false)
	}
	if hit || c.P.PerfectCTE {
		c.S.CTEHits.Inc()
		return mc.CTEFetch{}
	}
	c.S.CTEMisses.Inc()
	return mc.Miss(c.UnifiedBlockAddr(u), false)
}

// CTEArrived implements mc.Design: gather the fetched block's short CTEs
// into the short cache and insert the long CTE that was used.
func (c *Controller) CTEArrived(u uint64) {
	c.shortCache.Fill(c.shortKey(u), false)
	if c.Level(u) == mc.ML2 {
		c.longCache.Fill(c.longKey(u), false)
	}
}

// Translated implements mc.Design: the naive design has no sampled
// promotion policy; expansions claim their group slot instead (Bind).
func (c *Controller) Translated(uint64) {}

var _ mc.Translator = (*Controller)(nil)
