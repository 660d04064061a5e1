// Package cache models set-associative write-back caches with true LRU
// replacement and MESI line states, matching the Table III hierarchy of
// the paper's Xeon E5645: split 32 KB L1I/L1D, 256 KB private unified L2,
// and a 12 MB shared L3 per socket.
package cache

import "fmt"

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the MESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Line is one cache line's tag state, packed into 16 bytes. Tags are
// block addresses (addr >> lineBits, with lines of at least 4 bytes), so
// the top two bits of the tag word are always free and hold the MESI
// state.
type Line struct {
	word uint64 // tag | State<<stateShift
	lru  uint64 // larger = more recently used
}

const (
	stateShift = 62
	tagMask    = 1<<stateShift - 1
)

func (l *Line) state() State { return State(l.word >> stateShift) }

func (l *Line) setState(st State) { l.word = l.word&tagMask | uint64(st)<<stateShift }

// Config describes a cache's geometry.
type Config struct {
	Name  string
	SizeB int // total bytes
	Ways  int
	LineB int // line size in bytes
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.LineB < 4 {
		return fmt.Errorf("cache %q: line size %d below 4 bytes leaves no tag bits for the state", c.Name, c.LineB)
	}
	lines := c.SizeB / c.LineB
	if lines*c.LineB != c.SizeB {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeB, c.LineB)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	return nil
}

// Stats aggregates a cache's access counters.
type Stats struct {
	Hits, Misses    uint64
	Evictions       uint64
	DirtyWritebacks uint64
	Invalidations   uint64
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg      Config
	lines    []Line // set s is lines[s*ways : (s+1)*ways]
	ways     uint64
	nsets    uint64
	setMask  uint64 // nsets-1 when nsets is a power of two, else 0
	lineBits uint
	clock    uint64
	stats    Stats
}

// New builds a cache from cfg. It panics on invalid geometry, since
// configurations are compile-time constants in this repository.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeB / cfg.LineB
	nsets := lines / cfg.Ways
	lb := uint(0)
	for 1<<lb < cfg.LineB {
		lb++
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]Line, lines),
		ways:     uint64(cfg.Ways),
		nsets:    uint64(nsets),
		lineBits: lb,
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets - 1)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset returns the cache to its post-New state: all lines invalid, the
// LRU clock rewound and the counters zeroed. A reset cache behaves
// identically to a freshly constructed one, which lets simulation workers
// reuse a cache across runs instead of reallocating it.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return int(c.nsets) }

// set returns the ways of addr's set and addr's tag.
func (c *Cache) set(addr uint64) (ways []Line, tag uint64) {
	blk := addr >> c.lineBits
	// Modulo set indexing: the paper's 12 MB L3 has 12288 sets, which is
	// not a power of two. The full block address is kept as the tag,
	// which is simple and unambiguous. Power-of-two set counts (every L1
	// and L2) take the mask fast path — set is on the hot path of each
	// simulated memory access.
	var s uint64
	if c.setMask != 0 {
		s = blk & c.setMask
	} else {
		s = blk % c.nsets
	}
	base := s * c.ways
	return c.lines[base : base+c.ways], blk
}

// find returns the valid line holding tag, or nil.
func find(ways []Line, tag uint64) *Line {
	for i := range ways {
		if w := ways[i].word; w&tagMask == tag && State(w>>stateShift) != Invalid {
			return &ways[i]
		}
	}
	return nil
}

// Lookup probes for addr without modifying replacement state or counters.
// It returns the line's state (Invalid if absent).
func (c *Cache) Lookup(addr uint64) State {
	if l := find(c.set(addr)); l != nil {
		return l.state()
	}
	return Invalid
}

// Access performs a demand access for addr. If the line is present it is
// promoted to MRU and (for writes) upgraded to Modified; hit=true is
// returned. Otherwise hit=false and the caller is responsible for filling
// via Fill after consulting the next level.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	c.clock++
	if l := find(c.set(addr)); l != nil {
		l.lru = c.clock
		if write {
			l.setState(Modified)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Evicted describes a line displaced by Fill.
type Evicted struct {
	Addr  uint64
	State State
	Valid bool
}

// Fill installs addr with the given state, evicting the LRU line if the
// set is full. The evicted line (if any) is returned so the caller can
// propagate write-backs and maintain inclusion.
func (c *Cache) Fill(addr uint64, st State) Evicted {
	ways, tag := c.set(addr)
	c.clock++
	// Prefer an invalid way.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		l := &ways[i]
		if l.state() == Invalid {
			victim = i
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = i
		}
	}
	l := &ways[victim]
	var ev Evicted
	if old := l.state(); old != Invalid {
		ev = Evicted{Addr: (l.word & tagMask) << c.lineBits, State: old, Valid: true}
		c.stats.Evictions++
		if old == Modified {
			c.stats.DirtyWritebacks++
		}
	}
	l.word = tag | uint64(st)<<stateShift
	l.lru = c.clock
	return ev
}

// Invalidate removes addr if present, returning its prior state. Used by
// snoops (RFO from another core) and inclusion enforcement.
func (c *Cache) Invalidate(addr uint64) State {
	if l := find(c.set(addr)); l != nil {
		st := l.state()
		l.setState(Invalid)
		c.stats.Invalidations++
		return st
	}
	return Invalid
}

// Downgrade moves addr to Shared if present in E or M state (snoop read
// hit), returning the prior state.
func (c *Cache) Downgrade(addr uint64) State {
	if l := find(c.set(addr)); l != nil {
		st := l.state()
		if st == Exclusive || st == Modified {
			l.setState(Shared)
		}
		return st
	}
	return Invalid
}

// MarkDirty sets addr's line to Modified if present (write-back received
// from an inner level under inclusion), returning whether it was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	if l := find(c.set(addr)); l != nil {
		l.setState(Modified)
		return true
	}
	return false
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineB }
