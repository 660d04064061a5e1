package service

import (
	"slices"
	"sync"

	"repro/internal/bigdata/workloads"
)

// suiteMemoSize bounds how many built-in suites the process keeps: the
// most recently used configs stay, older ones are synthesized again on
// their next use. A suite is about 20 KB, and a daemon serves few
// distinct suite configs.
const suiteMemoSize = 8

// builtinSuites memoizes workloads.Suite for every JobSpec.ResolveSuite
// in the process — job admission, the coordinator's plan and execute,
// and each shard unit on a worker all resolve the same suite.
var builtinSuites = newSuiteMemo(workloads.Suite)

// suiteMemo is a bounded, least-recently-used memo of a suite builder,
// keyed by workloads.Config. Concurrent first callers of one config
// share a single build.
type suiteMemo struct {
	build func(workloads.Config) ([]workloads.Workload, error)

	mu      sync.Mutex
	clock   uint64
	entries map[workloads.Config]*suiteEntry
}

type suiteEntry struct {
	once  sync.Once
	suite []workloads.Workload
	err   error
	used  uint64 // memo clock at last use, under suiteMemo.mu
}

func newSuiteMemo(build func(workloads.Config) ([]workloads.Workload, error)) *suiteMemo {
	return &suiteMemo{build: build, entries: make(map[workloads.Config]*suiteEntry)}
}

// get returns the suite for cfg as a fresh slice the caller may modify
// or append to. Workload holds no pointers, slices or maps, so the
// shallow copy shares nothing with the memo.
func (m *suiteMemo) get(cfg workloads.Config) ([]workloads.Workload, error) {
	// An invalid config never becomes a key: a NaN scale would be a key
	// that no lookup or delete can find again.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	e := m.entries[cfg]
	if e == nil {
		if len(m.entries) >= suiteMemoSize {
			m.evictOldest()
		}
		e = &suiteEntry{}
		m.entries[cfg] = e
	}
	m.clock++
	e.used = m.clock
	m.mu.Unlock()

	e.once.Do(func() { e.suite, e.err = m.build(cfg) })
	if e.err != nil {
		return nil, e.err
	}
	return slices.Clone(e.suite), nil
}

// evictOldest drops the least recently used entry. Callers hold m.mu.
func (m *suiteMemo) evictOldest() {
	var oldest workloads.Config
	oldestUse := ^uint64(0)
	for k, e := range m.entries {
		if e.used < oldestUse {
			oldest, oldestUse = k, e.used
		}
	}
	delete(m.entries, oldest)
}
