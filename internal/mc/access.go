package mc

// The one access path. Each design built on Base writes its CTE lookup once,
// as a Design; Base runs that lookup and everything around it for both the
// timed window (Access) and functional warmup (Warm), so the two modes share
// every counter increment, CTE-cache touch and fill order by construction.

// Design is what a concrete translator adds to Base: its CTE lookup and two
// hooks around it. Base.Access and Base.Warm drive it identically in both
// modes.
type Design interface {
	// LookupCTE probes the design's CTE cache(s) for unit u and counts the
	// hit or miss. A hit returns the zero CTEFetch; a miss names the
	// CTE-table blocks to fetch.
	LookupCTE(u uint64) CTEFetch
	// CTEArrived runs when the block a missed lookup waits on has arrived,
	// before the access is served.
	CTEArrived(u uint64)
	// Translated runs once translation completes, before the data access.
	Translated(u uint64)
}

// CTEFetch is a missed lookup's DRAM work: N CTE-table blocks in issue
// order, whether each fills the CTE cache, and the index of the one the
// access waits on. A hit fetches nothing (N == 0).
type CTEFetch struct {
	N     int
	Wait  int
	Addr  [2]uint64
	Cache [2]bool
}

// Miss is the single-block miss: fetch blk and wait on it, filling the CTE
// cache when cacheIt is set.
func Miss(blk uint64, cacheIt bool) CTEFetch {
	return CTEFetch{N: 1, Addr: [2]uint64{blk}, Cache: [2]bool{cacheIt}}
}

// Bind makes d the design Access and Warm drive. forceGroup sends every
// expanded unit straight into its DRAM page group (forceIntoGroup): the
// naive design always does, DyLeCT only under its DirectToML0 ablation.
func (b *Base) Bind(d Design, forceGroup bool) {
	b.design = d
	b.forceGroup = forceGroup
}

// Stats implements Translator.
func (b *Base) Stats() *Stats { return &b.S }

// Warm implements Translator: Access in functional mode, where every fetch,
// expansion and compression completes inline with no timing and no DRAM
// traffic.
func (b *Base) Warm(addr uint64, write bool) {
	b.functionalMode = true
	b.Access(addr, write, nil)
	b.functionalMode = false
}

// Access implements Translator: look the unit up, fetch what a miss needs,
// then serve. In timed mode the access resumes after the CTE-cache latency
// on a hit, or when its awaited block arrives on a miss; in functional mode
// the same steps run inline without allocating.
func (b *Base) Access(addr uint64, write bool, done func()) {
	b.S.Requests.Inc()
	u := b.UnitOf(addr)
	f := b.design.LookupCTE(u)
	if b.functionalMode {
		for i := 0; i < f.N; i++ {
			b.FetchCTEBlock(f.Addr[i], f.Cache[i], nil)
		}
		if f.N > 0 {
			b.design.CTEArrived(u)
		}
		b.serve(u, addr, write, done)
		return
	}

	finish := b.timeRead(write, done)
	if f.N == 0 {
		b.Eng.Schedule(b.P.CTEHitLatency, func() { b.serve(u, addr, write, finish) })
		return
	}
	// The lookup latency is paid before the miss is known.
	b.Eng.Schedule(b.P.CTEHitLatency, func() {
		for i := 0; i < f.N; i++ {
			var arrived func()
			if i == f.Wait {
				arrived = func() {
					b.design.CTEArrived(u)
					b.serve(u, addr, write, finish)
				}
			}
			b.FetchCTEBlock(f.Addr[i], f.Cache[i], arrived)
		}
	})
}

// timeRead wraps a read's completion so it records the read's end-to-end
// latency (Figure 21); a write is posted, so its done passes through.
func (b *Base) timeRead(write bool, done func()) func() {
	if write {
		return done
	}
	start := b.Eng.Now()
	return func() {
		b.S.ReadLatency.Observe((b.Eng.Now() - start).Nanoseconds())
		if done != nil {
			done()
		}
	}
}

// serve runs once translation completes: Recency-List maintenance, the
// design's Translated hook, the data access — expanding a compressed unit
// first, with an optional group claim after the expansion — and
// demand-adaptive compression.
func (b *Base) serve(u, addr uint64, write bool, finish func()) {
	b.TouchRecency(u)
	b.design.Translated(u)
	switch {
	case b.units[u].level != ML2:
		b.DataAccess(addr, write, finish)
	case write:
		// Writebacks to compressed units expand them too (Section II-B),
		// but the write itself is posted.
		var claim func()
		if b.forceGroup {
			claim = func() { b.forceIntoGroup(u) }
		}
		b.ExpandUnit(u, claim)
		if finish != nil {
			finish()
		}
	case b.forceGroup:
		b.ExpandUnit(u, func() {
			b.forceIntoGroup(u)
			if finish != nil {
				finish()
			}
		})
	default:
		b.ExpandUnit(u, finish)
	}
	b.CheckPressure()
}
