package analysis

import "testing"

// Fixture stand-ins for the packages the shared-warmup contract names: the
// translator interface, the set-associative cache both the CPU and the
// memory controllers use, and a CPU-side system type.
const (
	fixtureMCPath = "fix/internal/mc"
	fixtureMCSrc  = `package mc

type Translator interface {
	Access(addr uint64, write bool, done func())
	Warm(addr uint64, write bool)
}
`
	fixtureCachePath = "fix/internal/cache"
	fixtureCacheSrc  = `package cache

type Cache struct {
	tags []uint64
	tick uint64
}

func New(n int) *Cache { return &Cache{tags: make([]uint64, n)} }

func (c *Cache) Fill(addr uint64) { c.tick++; c.tags[addr%uint64(len(c.tags))] = addr }

func (c *Cache) Probe(addr uint64) bool { return c.tags[addr%uint64(len(c.tags))] == addr }

type Stride struct{ last uint64 }

func (p *Stride) Observe(line uint64) { p.last = line }
`
	fixtureSystemPath = "fix/internal/system"
	fixtureSystemSrc  = `package system

import "fix/internal/cache"

type CPU struct {
	L3      *cache.Cache
	Stride  *cache.Stride
	Touched []uint64
}

func (c *CPU) Touch(pa uint64) { c.Touched[pa/4096/64] |= 1 }
`
)

func warmPkgs() map[string]map[string]string {
	return map[string]map[string]string{
		fixtureMCPath:     {"mc.go": fixtureMCSrc},
		fixtureCachePath:  {"cache.go": fixtureCacheSrc},
		fixtureSystemPath: {"system.go": fixtureSystemSrc},
	}
}

// translatorSrc wraps a Warm body into a translator that owns a CTE cache
// and (for the firing cases) holds a pointer to CPU-side state.
func translatorSrc(warm string) string {
	return `package sut

import (
	"fix/internal/cache"
	"fix/internal/system"
)

type Ctl struct {
	cte  *cache.Cache
	cpu  *system.CPU
	hits uint64
}

func (c *Ctl) Access(addr uint64, write bool, done func()) {}

func (c *Ctl) Warm(addr uint64, write bool) {
` + warm + `
}

func (c *Ctl) WalkHint(addr uint64) { c.hits++ }
`
}

func TestWarmPureOwnCTECacheIsClean(t *testing.T) {
	// The designs' own CTE caches are cache.Cache too: filling and probing
	// them, directly or through an alias, is the translator's own state.
	src := translatorSrc(`	c.hits++
	if !c.cte.Probe(addr) {
		c.cte.Fill(addr)
	}
	cte := c.cte
	cte.Fill(addr + 64)`)
	wantClean(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()))
}

func TestWarmPureCPUMethodFires(t *testing.T) {
	// Calling into CPU-side code that writes its receiver.
	src := translatorSrc(`	c.cpu.Touch(addr)`)
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"(*system.CPU).Touch", "state system.CPU", "(*sut.Ctl).Warm")
}

func TestWarmPureCPUCacheFires(t *testing.T) {
	// Filling the CPU's L3 is a cache.Cache write reached through a
	// CPU-side type, not the translator's own cache.
	src := translatorSrc(`	c.cpu.L3.Fill(addr)`)
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"(*cache.Cache).Fill", "through system.CPU")
}

func TestWarmPurePrefetcherFires(t *testing.T) {
	// Prefetchers are CPU-side cache-package state.
	src := translatorSrc(`	c.cpu.Stride.Observe(addr)`)
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"state cache.Stride")
}

func TestWarmPureDirectWriteFires(t *testing.T) {
	// Writing CPU state through a held pointer, inside the translator's own
	// package.
	src := translatorSrc(`	c.cpu.Touched[0] = addr`)
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"writes through system.CPU")
}

func TestWarmPureWalkHintIsARoot(t *testing.T) {
	src := translatorSrc(`	c.hits++`)
	src = src[:len(src)-len("func (c *Ctl) WalkHint(addr uint64) { c.hits++ }\n")] +
		"func (c *Ctl) WalkHint(addr uint64) { c.cpu.L3.Fill(addr) }\n"
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"(*sut.Ctl).WalkHint")
}

func TestWarmPureUnknownCacheFires(t *testing.T) {
	// A cache of unknown origin (a call result) is conservatively foreign:
	// the contract cannot prove the translator owns it.
	src := translatorSrc(`	c.pick().Fill(addr)`) + `
func (c *Ctl) pick() *cache.Cache { return c.cpu.L3 }
`
	wantFinding(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()),
		"(*cache.Cache).Fill", "does not own")
}

func TestWarmPureIgnoresNonTranslators(t *testing.T) {
	// A Warm method on a type that is not a translator is not a root.
	src := `package sut

import "fix/internal/system"

type Other struct{ cpu *system.CPU }

func (o *Other) Warm(addr uint64, write bool) { o.cpu.Touch(addr) }
`
	wantClean(t, runOn(t, loadFixture(t, src, warmPkgs()), WarmPure()))
}
