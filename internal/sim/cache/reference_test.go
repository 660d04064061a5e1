package cache

// referenceCache is the original cache layout: one [][]Line slice per set
// and unpacked 24-byte lines with the MESI state in its own field. It is
// retained as the oracle the packed Cache is tested against and is not
// used on any production path.
type referenceCache struct {
	sets     [][]refLine
	nsets    uint64
	lineBits uint
	clock    uint64
	stats    Stats
}

type refLine struct {
	Tag   uint64
	State State
	lru   uint64
}

func newReference(cfg Config) *referenceCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeB / cfg.LineB
	nsets := lines / cfg.Ways
	sets := make([][]refLine, nsets)
	backing := make([]refLine, lines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	lb := uint(0)
	for 1<<lb < cfg.LineB {
		lb++
	}
	return &referenceCache{sets: sets, nsets: uint64(nsets), lineBits: lb}
}

func (c *referenceCache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.lineBits
	return blk % c.nsets, blk
}

func (c *referenceCache) Lookup(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			return l.State
		}
	}
	return Invalid
}

func (c *referenceCache) Access(addr uint64, write bool) (hit bool) {
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			l.lru = c.clock
			if write {
				l.State = Modified
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *referenceCache) Fill(addr uint64, st State) Evicted {
	set, tag := c.index(addr)
	c.clock++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State == Invalid {
			victim = i
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = i
		}
	}
	l := &c.sets[set][victim]
	var ev Evicted
	if l.State != Invalid {
		ev = Evicted{Addr: l.Tag << c.lineBits, State: l.State, Valid: true}
		c.stats.Evictions++
		if l.State == Modified {
			c.stats.DirtyWritebacks++
		}
	}
	l.Tag = tag
	l.State = st
	l.lru = c.clock
	return ev
}

func (c *referenceCache) Invalidate(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			st := l.State
			l.State = Invalid
			c.stats.Invalidations++
			return st
		}
	}
	return Invalid
}

func (c *referenceCache) Downgrade(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			st := l.State
			if st == Exclusive || st == Modified {
				l.State = Shared
			}
			return st
		}
	}
	return Invalid
}

func (c *referenceCache) MarkDirty(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			l.State = Modified
			return true
		}
	}
	return false
}
