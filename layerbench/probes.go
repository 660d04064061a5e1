package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cellcache"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim/cache"
	"repro/internal/sim/event"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// The microprobes time one layer's public functions in isolation, on
// fixed inputs, so their exact counts repeat from run to run.

// probeWorkloads are the workloads whose traces the simulator probe
// replays; probeSeed fixes those traces.
var probeWorkloads = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}

const (
	probeSeed  = 20140901
	probeInstr = 6000 // per core
	probeReps  = 3
)

// simProbe is the outcome of the trace and simulator probes.
type simProbe struct {
	traceNsPerInstr float64
	simNsPerInstr   float64
	measureUs       float64 // perf.Measure per cell
	instructions    uint64
	counts          event.Counts // summed final counters of one replay of every trace
}

// probeSim drains trace.Generator.Next into per-core slices, then times
// machine.RunInto over those recorded traces (kernel self time, no trace
// generation) and perf.Measure over the resulting snapshots.
func probeSim() (simProbe, error) {
	var p simProbe
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		return p, err
	}
	ws, err := workloads.Select(suite, probeWorkloads)
	if err != nil {
		return p, err
	}
	mcfg := machine.Westmere()
	cores := mcfg.Cores()

	recorded := make([][][]machine.Instr, len(ws))
	var genNs []float64
	for rep := 0; rep < probeReps; rep++ {
		var elapsed time.Duration
		for wi, w := range ws {
			recorded[wi] = make([][]machine.Instr, cores)
			for c := 0; c < cores; c++ {
				g, err := trace.NewGenerator(w.Profile, probeSeed, c, cores)
				if err != nil {
					return p, err
				}
				buf := make([]machine.Instr, probeInstr)
				t0 := time.Now()
				for i := range buf {
					if !g.Next(&buf[i]) {
						return p, fmt.Errorf("probe: trace of %s ended early", w.Name)
					}
				}
				elapsed += time.Since(t0)
				recorded[wi][c] = buf
			}
		}
		genNs = append(genNs, float64(elapsed.Nanoseconds())/float64(len(ws)*cores*probeInstr))
	}
	p.traceNsPerInstr = median(genNs)

	m, err := machine.New(mcfg)
	if err != nil {
		return p, err
	}
	var res machine.RunResult
	var simNs []float64
	var snaps [][]event.Counts
	for rep := 0; rep < probeReps; rep++ {
		var elapsed time.Duration
		var instr uint64
		var counts event.Counts
		for wi := range ws {
			sources := make([]machine.Source, cores)
			for c := range sources {
				sources[c] = &machine.SliceSource{Instrs: recorded[wi][c]}
			}
			m.Reset()
			t0 := time.Now()
			if err := m.RunInto(&res, sources, probeInstr, paperSlices); err != nil {
				return p, err
			}
			elapsed += time.Since(t0)
			instr += res.Instructions
			last := res.Snapshots[len(res.Snapshots)-1]
			counts.Add(&last)
			if rep == 0 {
				snaps = append(snaps, append([]event.Counts(nil), res.Snapshots...))
			}
		}
		if rep > 0 && (instr != p.instructions || counts != p.counts) {
			return p, fmt.Errorf("probe: simulator replay not deterministic")
		}
		p.instructions, p.counts = instr, counts
		simNs = append(simNs, float64(elapsed.Nanoseconds())/float64(instr))
	}
	p.simNsPerInstr = median(simNs)

	mon := perf.DefaultMonitor()
	const measureReps = 200
	t0 := time.Now()
	for i := 0; i < measureReps; i++ {
		for _, s := range snaps {
			if _, err := perf.Measure(s, mon); err != nil {
				return p, err
			}
		}
	}
	p.measureUs = float64(time.Since(t0).Microseconds()) / float64(measureReps*len(snaps))
	return p, nil
}

// probeCacheAccess times cache.Cache.Access on an L2-geometry cache over
// a fixed address stream: 80% of accesses in a region that fits, the
// rest spread over 64× the capacity.
func probeCacheAccess() float64 {
	cfg := machine.Westmere().L2
	c := cache.New(cfg)
	r := rand.New(rand.NewPCG(probeSeed, 1))
	const n = 1 << 20
	addrs := make([]uint64, n)
	for i := range addrs {
		span := uint64(cfg.SizeB / 2)
		if r.IntN(5) == 0 {
			span = uint64(cfg.SizeB) * 64
		}
		addrs[i] = r.Uint64N(span) &^ 7
	}
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		c.Reset()
		t0 := time.Now()
		for i, a := range addrs {
			if !c.Access(a, i&7 == 0) {
				c.Fill(a, cache.Exclusive)
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(ns)
}

// probeSuite times one workloads.Suite call (ms).
func probeSuite() (float64, error) {
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := workloads.Suite(workloads.DefaultConfig()); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms), nil
}

// probeSpec times JobSpec.Normalized plus ResolveSuite, and shard.Plan
// at one worker's default unit count, on spec (ms each).
func probeSpec(spec service.JobSpec) (normalizeMs, planMs float64, err error) {
	var norm, plan []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		n, err := spec.Normalized()
		if err != nil {
			return 0, 0, err
		}
		if _, err := n.ResolveSuite(); err != nil {
			return 0, 0, err
		}
		norm = append(norm, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, err := shard.Plan(n, 4); err != nil {
			return 0, 0, err
		}
		plan = append(plan, time.Since(t0).Seconds()*1e3)
	}
	return median(norm), median(plan), nil
}

// probeCellCache times Store.PutCell (fsync included) and Store.GetCell
// over the cell keys of specs, on a fresh store under dir (µs each).
func probeCellCache(dir string, specs []service.JobSpec) (getUs, putUs float64, err error) {
	const maxKeys = 64
	type cell struct{ workload, key string }
	var cells []cell
	seen := map[string]bool{}
	runs, metrics := 1, len(perf.MetricNames())
	for _, spec := range specs {
		if len(cells) == maxKeys {
			break
		}
		n, err := spec.Normalized()
		if err != nil {
			return 0, 0, err
		}
		suite, err := n.ResolveSuite()
		if err != nil {
			return 0, 0, err
		}
		runs = n.Cluster.Runs
		for _, w := range suite {
			for node := 0; node < n.Cluster.SlaveNodes && len(cells) < maxKeys; node++ {
				key, err := cluster.CellKey(w, n.Cluster, node)
				if err != nil {
					return 0, 0, err
				}
				if !seen[key] {
					seen[key] = true
					cells = append(cells, cell{w.Name, key})
				}
			}
		}
	}
	if len(cells) == 0 {
		return 0, 0, fmt.Errorf("probe: no cell keys")
	}
	path := filepath.Join(dir, "probe-cells")
	defer os.RemoveAll(path)
	store, err := cellcache.Open(path, 0, 0, cellcache.NewMetrics(obs.NewRegistry()))
	if err != nil {
		return 0, 0, err
	}
	vecs := make([][]float64, runs)
	for i := range vecs {
		vecs[i] = make([]float64, metrics)
		for j := range vecs[i] {
			vecs[i][j] = float64(i*metrics+j) / 7
		}
	}
	t0 := time.Now()
	for _, c := range cells {
		store.PutCell(c.workload, c.key, vecs)
	}
	putUs = float64(time.Since(t0).Microseconds()) / float64(len(cells))
	t0 = time.Now()
	for _, c := range cells {
		if _, ok := store.GetCell(c.workload, c.key, runs, metrics); !ok {
			return 0, 0, fmt.Errorf("probe: cell %s not found after PutCell", c.key)
		}
	}
	getUs = float64(time.Since(t0).Microseconds()) / float64(len(cells))
	return getUs, putUs, nil
}
