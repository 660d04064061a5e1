package service

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
)

// A resolved suite is the caller's to change: edits to its elements,
// appends, and appends into its spare capacity must never reach a later
// ResolveSuite result.
func TestResolveSuiteReturnsPrivateCopy(t *testing.T) {
	want, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec()
	selected := spec
	selected.Workloads = []string{"H-Sort", "S-Grep"}
	extended := spec
	extended.CustomWorkloads = []custom.Definition{testScanDef()}
	for _, s := range []JobSpec{spec, selected, extended, spec} {
		got, err := s.ResolveSuite()
		if err != nil {
			t.Fatal(err)
		}
		got[0].Name = "clobbered"
		got[0].Profile.Compute.LoadFrac = -1
		_ = append(got[:1], workloads.Workload{Name: "clobbered"})
		_ = append(got, workloads.Workload{Name: "appended"})

		again, err := spec.ResolveSuite()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("ResolveSuite changed after a caller modified an earlier result")
		}
	}
}

// Concurrent first callers of one config share a single build and all
// get the same suite.
func TestSuiteMemoConcurrentFirstCallers(t *testing.T) {
	var builds atomic.Int32
	m := newSuiteMemo(func(cfg workloads.Config) ([]workloads.Workload, error) {
		builds.Add(1)
		return workloads.Suite(cfg)
	})
	cfg := workloads.DefaultConfig()
	want, err := workloads.Suite(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([][]workloads.Workload, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, err := m.get(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = s
			s[0].Name = "mine" // each caller owns its copy
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent first callers ran %d builds, want 1", callers, n)
	}
	for i, s := range results {
		s[0].Name = want[0].Name
		if !reflect.DeepEqual(s, want) {
			t.Errorf("caller %d got a different suite", i)
		}
	}
}

// The memo holds at most suiteMemoSize configs and evicts the least
// recently used one; invalid configs are rejected and never stored.
func TestSuiteMemoBounded(t *testing.T) {
	builds := map[uint64]int{}
	m := newSuiteMemo(func(cfg workloads.Config) ([]workloads.Workload, error) {
		builds[cfg.Seed]++
		return []workloads.Workload{{Name: "w"}}, nil
	})
	get := func(seed uint64) {
		t.Helper()
		if _, err := m.get(workloads.Config{Seed: seed, Scale: 1}); err != nil {
			t.Fatal(err)
		}
	}
	entries := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.entries)
	}

	for seed := uint64(1); seed <= suiteMemoSize; seed++ {
		get(seed)
	}
	get(1) // seed 2 is now the least recently used
	get(suiteMemoSize + 1)
	if n := entries(); n != suiteMemoSize {
		t.Fatalf("memo holds %d configs, want %d", n, suiteMemoSize)
	}
	get(1)
	get(2)
	if builds[1] != 1 || builds[2] != 2 {
		t.Errorf("builds of seed 1 = %d (want 1, recently used), seed 2 = %d (want 2, evicted)", builds[1], builds[2])
	}

	for seed := uint64(100); seed < 100+3*suiteMemoSize; seed++ {
		get(seed)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if _, err := m.get(workloads.Config{Seed: 1, Scale: scale}); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if n := entries(); n != suiteMemoSize {
		t.Fatalf("memo holds %d configs after %d distinct ones, want %d", n, 3*suiteMemoSize, suiteMemoSize)
	}
}

// The memo hands out shallow copies of its suites, which is only safe
// while a Workload holds no references. This fails if Workload (or a
// type inside it) gains a pointer, slice, map or other shared field.
func TestWorkloadHoldsNoReferences(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: the suite memo's shallow copies would share it", path, typ.Kind())
		}
	}
	check("Workload", reflect.TypeOf(workloads.Workload{}))
}
