package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/sim/event"
)

// measureLayers is a traced run. The stream runs twice, each time on a
// freshly set-up system: untraced for secs/2 (whole blocks), then traced
// over exactly the same jobs. The gap between the two is the tracing
// overhead; the per-layer numbers come from the traced pass's spans and
// counters and from the microprobes.
func measureLayers(w workloadDef, seed uint64, secs float64, dir string, rep map[string]any) (result, error) {
	st, err := w.stream(seed)
	if err != nil {
		return result{}, err
	}
	plain, _, err := setUp(w, 1, filepath.Join(dir, "plain"), seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	outsA, _, err := drive(plain, st, secs/2, 0)
	plain.close()
	if err != nil {
		return result{}, err
	}

	rec := &recorder{}
	sys, _, err := setUp(w, 1, filepath.Join(dir, "traced"), seed, rec)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	fs, isFleet := sys.(*fleet)
	var before, after counters
	if isFleet {
		before = fs.counters()
	}
	outsB, _, err := drive(sys, st, 0, len(outsA))
	if isFleet {
		after = fs.counters()
	}
	sys.close()
	if err != nil {
		return result{}, err
	}
	spanDir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := rec.write(spanFile); err != nil {
		return result{}, err
	}
	rep["spans"] = spanFile

	// One check over both passes: they ran the same jobs, so the
	// reference rows computed for one serve the other. The outcomes are
	// taken back so that later steps see the check's verdicts.
	all := append(append([]outcome(nil), outsA...), outsB...)
	failed, err := w.check(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench: check:", err)
	}
	outsA, outsB = all[:len(outsA)], all[len(outsA):]
	res := result{Attempted: len(all) + w.extra, Failed: failed}
	res.Correct = failed == 0 && err == nil

	c := newCollect()
	n := len(outsB)
	if err := spanMetrics(c, rec.snapshot(), outsA, outsB); err != nil {
		return result{}, err
	}
	if isFleet {
		if err := fleetMetrics(c, after.sub(before), outsA, outsB); err != nil {
			return result{}, err
		}
	} else {
		for _, name := range []string{"service.submit_ms", "service.queue_wait_ms",
			"service.result_cache_hit_ratio", "service.result_cache_lookups", "service.journal_appends",
			"shard.units_per_job", "shard.http_requests_per_unit", "shard.http_bytes_per_job",
			"shard.overhead_s", "shard.self_ms", "shard.http_self_ms",
			"cellcache.hits", "cellcache.misses", "cellcache.stores", "cellcache.lookups", "cellcache.hit_ratio"} {
			c.set(perLayer, name, 0, n) // pipeline-paper bypasses these layers
		}
		c.set(perLayer, "cluster.cells_computed", float64(paperCells()), n)
	}

	// The spec-level probes use the workload's own job specs.
	specs := []service.JobSpec{paperSpec(outsB[0].job)}
	if isFleet {
		specs = specs[:0]
		for _, o := range outsB {
			specs = append(specs, o.job.Spec)
		}
	}
	if err := probeMetrics(c, specs, dir); err != nil {
		return result{}, err
	}

	if err := c.complete(perLayer); err != nil {
		return result{}, err
	}
	res.Metrics = c.values
	rep["samples"] = c.samples
	rep["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	rep["attempted"] = res.Attempted
	return res, nil
}

// spanMetrics derives the per-layer times from the traced pass's spans:
// each layer's self time per job, the share of job time no layer span
// covers, and the tracing overhead against the untraced pass.
func spanMetrics(c *collect, spans []span, untraced, traced []outcome) error {
	n := len(traced)
	perJob := float64(n)
	spans = underJobs(spans)
	self := selfTimes(spans)
	byName := map[string]float64{}
	var rootDur, rootSelf, coreSelf, httpSelf float64
	for _, s := range spans {
		sec := float64(self[s.ID]) / 1e9
		byName[s.Name] += sec
		switch {
		case s.Parent == 0:
			rootDur += float64(s.dur()) / 1e9
			rootSelf += sec
		case s.Layer == "core":
			coreSelf += sec
		case s.Layer == "shard.http":
			httpSelf += sec
		}
	}
	if rootDur == 0 {
		return fmt.Errorf("traced pass recorded no job spans")
	}
	c.set(perLayer, "bench.uncovered_pct", 100*rootSelf/rootDur, n)
	c.set(perLayer, "bench.traced_job_s", rootDur, n)
	c.set(perLayer, "bench.trace_overhead_pct", 100*(sum(latencies(traced))/sum(latencies(untraced))-1), n)
	c.set(perLayer, "cluster.grid_s", byName["cluster.grid"]/perJob, n)
	c.set(perLayer, "core.pca_ms", 1e3*byName["core.pca"]/perJob, n)
	c.set(perLayer, "core.hier_ms", 1e3*byName["core.hierarchical"]/perJob, n)
	c.set(perLayer, "core.kmeans_ms", 1e3*byName["core.kmeans"]/perJob, n)
	c.set(perLayer, "core.analyze_ms", 1e3*coreSelf/perJob, n)
	if byName["shard.execute"] > 0 || httpSelf > 0 {
		c.set(perLayer, "shard.self_ms", 1e3*byName["shard.execute"]/perJob, n)
		c.set(perLayer, "shard.http_self_ms", 1e3*httpSelf/perJob, n)
		c.set(perLayer, "service.submit_ms", 1e3*byName["service.submit"]/perJob, n)
	}
	return nil
}

// underJobs keeps the spans that descend from a job's root span,
// dropping those of set-up work (the warm fleet's pool, the cold fleet's
// warm-up job), which run through the same traced code.
func underJobs(spans []span) []span {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []span
	for _, s := range spans {
		a := s
		for a.Parent != 0 {
			a = byID[a.Parent]
		}
		if a.Name == "job" {
			out = append(out, s)
		}
	}
	return out
}

// fleetMetrics derives the service, shard and cellcache numbers from the
// program's registry counters over the traced pass (d) and the job
// statuses. shard.overhead_s compares untraced fleet jobs with a fresh
// in-process computation of the same spec.
func fleetMetrics(c *collect, d counters, untraced, traced []outcome) error {
	n := len(traced)
	perJob := float64(n)
	var waits []float64
	for _, o := range traced {
		st := o.status
		if o.err == nil && !st.CacheHit && st.StartedAt != nil {
			waits = append(waits, 1e3*st.StartedAt.Sub(st.CreatedAt).Seconds())
		}
	}
	c.set(perLayer, "service.queue_wait_ms", median(waits), len(waits))
	c.set(perLayer, "service.result_cache_lookups", d.cacheLookups/perJob, n)
	c.set(perLayer, "service.result_cache_hit_ratio", ratio(d.cacheLookups-d.cacheMisses, d.cacheLookups), n)
	c.set(perLayer, "service.journal_appends", d.journalAppends/perJob, n)
	c.set(perLayer, "shard.units_per_job", d.unitsDispatched/perJob, n)
	c.set(perLayer, "shard.http_requests_per_unit", ratio(d.httpRequests, d.unitsDispatched), n)
	c.set(perLayer, "shard.http_bytes_per_job", d.httpBytes/perJob, n)
	c.set(perLayer, "cellcache.hits", d.cellHits/perJob, n)
	c.set(perLayer, "cellcache.misses", d.cellMisses/perJob, n)
	c.set(perLayer, "cellcache.stores", d.cellStore/perJob, n)
	c.set(perLayer, "cellcache.lookups", (d.cellHits+d.cellMisses)/perJob, n)
	c.set(perLayer, "cellcache.hit_ratio", ratio(d.cellHits, d.cellHits+d.cellMisses), n)
	runs := float64(traced[0].job.Spec.Cluster.Runs)
	c.set(perLayer, "cluster.cells_computed", d.workerCellMisses*runs/perJob, n)

	const overheadJobs = 3
	var gaps []float64
	for _, o := range untraced {
		if o.err != nil || o.job.Resubmits >= 0 {
			continue
		}
		t0 := time.Now()
		if _, err := (rows{}).inProcess(o.job.Spec); err != nil {
			return err
		}
		gaps = append(gaps, o.latency-time.Since(t0).Seconds())
		if len(gaps) == overheadJobs {
			break
		}
	}
	c.set(perLayer, "shard.overhead_s", median(gaps), len(gaps))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeMetrics runs the microprobes. specs are the workload's job specs:
// the first is normalized and planned, all give the cellcache probe's
// key set.
func probeMetrics(c *collect, specs []service.JobSpec, dir string) error {
	sp, err := probeSim()
	if err != nil {
		return err
	}
	c.set(perLayer, "trace.ns_per_instr", sp.traceNsPerInstr, probeReps)
	c.set(perLayer, "sim.ns_per_instr", sp.simNsPerInstr, probeReps)
	c.set(perLayer, "perf.measure_us_per_cell", sp.measureUs, 1)
	c.set(perLayer, "sim.instructions", float64(sp.instructions), 1)
	for name, v := range map[string]uint64{
		"sim.cycles":    sp.counts.Get(event.Cycles),
		"sim.l2_misses": sp.counts.Get(event.L2Miss),
		"sim.l3_misses": sp.counts.Get(event.L3Miss),
	} {
		c.set(perLayer, name, float64(v), 1)
	}
	c.set(perLayer, "sim.cache_access_ns", probeCacheAccess(), probeReps)
	suiteMs, err := probeSuite()
	if err != nil {
		return err
	}
	c.set(perLayer, "workloads.suite_ms", suiteMs, 5)
	normMs, planMs, err := probeSpec(specs[0])
	if err != nil {
		return err
	}
	c.set(perLayer, "service.normalize_ms", normMs, 5)
	c.set(perLayer, "shard.plan_ms", planMs, 5)
	getUs, putUs, err := probeCellCache(dir, specs)
	if err != nil {
		return err
	}
	c.set(perLayer, "cellcache.get_us", getUs, 1)
	c.set(perLayer, "cellcache.put_us", putUs, 1)
	return nil
}
