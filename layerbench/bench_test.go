package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/benchio"
	"repro/internal/core"
	"repro/internal/service"
)

// The job stream is a pure function of the seed: generating it twice —
// in any order — gives the same jobs, and another seed gives others.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	gens := map[string]func(seed uint64) (stream, error){}
	for _, w := range workloadDefs {
		gens[w.name] = w.stream
	}
	for name, gen := range gens {
		a, err := gen(42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(43)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 * a.block
		for i := n - 1; i >= 0; i-- { // reverse order: no hidden generator state
			ja, err := a.at(i)
			if err != nil {
				t.Fatal(err)
			}
			jb, _ := b.at(i)
			if !reflect.DeepEqual(ja, jb) {
				t.Fatalf("%s job %d differs between two streams of seed 42", name, i)
			}
			jc, _ := c.at(i)
			if reflect.DeepEqual(ja, jc) && ja.Resubmits < 0 {
				t.Fatalf("%s job %d is the same under seeds 42 and 43", name, i)
			}
		}
	}
}

// Each warm block is seven jobs with exactly one new workload, then one
// exact resubmission of an earlier job of the same block.
func TestWarmStreamBlockShape(t *testing.T) {
	st, err := warmStream(7)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[string]bool{}
	for _, n := range warmPool {
		pool[n] = true
	}
	for i := 0; i < 3*warmBlock; i++ {
		j, err := st.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if i%warmBlock == warmBlock-1 {
			prev, _ := st.at(j.Resubmits)
			if j.Resubmits < i-i%warmBlock || j.Resubmits >= i || !reflect.DeepEqual(prev.Spec, j.Spec) {
				t.Fatalf("job %d resubmits %d, outside its block or not identical", i, j.Resubmits)
			}
			continue
		}
		var fresh int
		for _, n := range j.Spec.Workloads {
			if !pool[n] {
				fresh++
			}
		}
		if fresh != 1 || len(j.Spec.Workloads) != 4 || len(j.Spec.CustomWorkloads) != 1 {
			t.Fatalf("job %d workloads %v: want three pool workloads and one new", i, j.Spec.Workloads)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // reaches past the parent: 90..100 counts
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "e", Start: 40, End: 40}, // instant
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestNestAssignsInnermostContainer(t *testing.T) {
	r := &recorder{}
	root := r.start("job", "bench", "j", 0)
	outer := r.start("shard.execute", "shard", "j", root)
	r.spans[root-1].Start, r.spans[root-1].End = 0, 100
	r.spans[outer-1].Start, r.spans[outer-1].End = 10, 90
	inner := r.start("http", "shard.http", "j", outer)
	r.spans[inner-1].Start, r.spans[inner-1].End = 20, 60
	grid := r.start("cluster.grid", "cluster", "j", 0)
	r.spans[grid-1].Start, r.spans[grid-1].End = 30, 50
	stage := r.start("core.pca", "core", "j", 0)
	r.spans[stage-1].Start, r.spans[stage-1].End = 70, 80
	r.nest("j", root)
	if p := r.spans[grid-1].Parent; p != inner {
		t.Fatalf("grid span nested under %d, want the HTTP span %d", p, inner)
	}
	if p := r.spans[stage-1].Parent; p != outer {
		t.Fatalf("stage span nested under %d, want the execute span %d", p, outer)
	}
}

func TestTailPercentile(t *testing.T) {
	if _, _, ok := tailPercentile(make([]float64, 10)); ok {
		t.Fatal("ten samples have no percentile with ten beyond it")
	}
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i)
	}
	pct, v, ok := tailPercentile(xs)
	if !ok || pct != 50 || v != 10 {
		t.Fatalf("got p%v = %v (ok %v), want p50 = 10", pct, v, ok)
	}
}

// Every metric and workload the benchmark can print is declared in
// BENCHMARK.json with the same unit, and nothing declared is missing.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark prints %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's table")
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// A run prints exactly the declared metrics of its mode.
func TestSetRejectsUndeclared(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("set accepted an undeclared metric")
		}
	}()
	newCollect().set(endToEnd, "no_such_metric", 1, 1)
}

func TestUnderJobsDropsSetupSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "shard.execute"}, // set-up job: no root
		{ID: 2, Parent: 1, Name: "http"},
		{ID: 3, Name: "job"},
		{ID: 4, Parent: 3, Name: "shard.execute"},
		{ID: 5, Parent: 4, Name: "http"},
	}
	var ids []int
	for _, s := range underJobs(spans) {
		ids = append(ids, s.ID)
	}
	if !reflect.DeepEqual(ids, []int{3, 4, 5}) {
		t.Fatalf("kept %v, want [3 4 5]", ids)
	}
}

// The fleet check's reference assembles the characterization one
// workload at a time (memoized across jobs); it must give the bytes of
// the whole-suite computation a bdservd runs.
func TestRowwiseReferenceMatchesWholeSuite(t *testing.T) {
	nodes, instr, kmax := 1, 1000, 2
	req := service.JobRequest{Workloads: []string{"S-Grep", "H-Sort", "H-Bayes"},
		Nodes: &nodes, Instructions: &instr, KMax: &kmax}
	spec, err := req.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	ccfg := spec.Cluster
	ccfg.Parallelism = 1
	ds, err := core.CharacterizeSuite(suite, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(ds, spec.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
	if err != nil {
		t.Fatal(err)
	}
	r := rows{}
	for pass := 0; pass < 2; pass++ { // the second pass is served from the memo
		got, err := r.inProcess(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: row-wise reference differs from the whole-suite result", pass)
		}
	}
}
