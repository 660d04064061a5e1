package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run (--trace 0) prints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics a traced run (--trace 1) prints. Counts are
// per job, averaged over whole stream blocks, so they repeat exactly.
var perLayer = []metricDef{
	{Name: "sim.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "sim.cache_access_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.instructions", Unit: "count", Better: "higher"},
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "sim.l2_misses", Unit: "count", Better: "lower"},
	{Name: "sim.l3_misses", Unit: "count", Better: "lower"},
	{Name: "trace.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "perf.measure_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "workloads.suite_ms", Unit: "ms", Better: "lower"},
	{Name: "service.normalize_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.result_cache_lookups", Unit: "count/job", Better: "lower"},
	{Name: "service.journal_appends", Unit: "count/job", Better: "lower"},
	{Name: "shard.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.units_per_job", Unit: "count/job", Better: "lower"},
	{Name: "shard.http_requests_per_unit", Unit: "count", Better: "lower"},
	{Name: "shard.http_bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "shard.overhead_s", Unit: "s", Better: "lower"},
	{Name: "shard.self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cellcache.hits", Unit: "count/job", Better: "higher"},
	{Name: "cellcache.misses", Unit: "count/job", Better: "lower"},
	{Name: "cellcache.stores", Unit: "count/job", Better: "lower"},
	{Name: "cellcache.lookups", Unit: "count/job", Better: "lower"},
	{Name: "cellcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cellcache.get_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.put_us", Unit: "us", Better: "lower"},
	{Name: "core.pca_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hier_ms", Unit: "ms", Better: "lower"},
	{Name: "core.kmeans_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.cells_computed", Unit: "count/job", Better: "lower"},
	{Name: "cluster.grid_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.uncovered_pct", Unit: "%", Better: "lower"},
	{Name: "bench.traced_job_s", Unit: "s", Better: "lower"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect keeps the metrics of one run together with their sample
// counts.
type collect struct {
	values  map[string]value
	samples map[string]int
}

func newCollect() *collect {
	return &collect{values: map[string]value{}, samples: map[string]int{}}
}

// set records metric name (which must be declared in defs) from n
// samples.
func (c *collect) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			c.values[name] = value{Value: v, Unit: d.Unit}
			c.samples[name] = n
			return
		}
	}
	panic("layerbench: undeclared metric " + name) // the tables above are the only source of names
}

// complete reports an error unless c holds exactly the metrics of defs.
func (c *collect) complete(defs []metricDef) error {
	if len(c.values) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(c.values), len(defs))
	}
	for _, d := range defs {
		if _, ok := c.values[d.Name]; !ok {
			return fmt.Errorf("declared metric %s was not measured", d.Name)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest percentile of xs with at least ten
// samples above it, its value, and whether xs is long enough to have one.
func tailPercentile(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // s[k+1:] holds exactly ten samples
	return 100 * float64(k+1) / float64(n), s[k], true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostStamp identifies the host and build a run measured.
func hostStamp() map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
		"vcs_modified": modified,
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}
