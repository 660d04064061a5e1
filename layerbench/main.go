// Command layerbench is the repository's benchmark: three workloads —
// the paper pipeline in-process, a cold fleet and a warm-cache fleet —
// driven by one closed-loop client with parallelism 1 everywhere. An
// untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer ones, from spans the benchmark
// records around its calls into each layer and from microprobes of each
// layer's public functions. Every job's output is checked. Run it from
// the repository root through the wrapper, which builds it first:
//
//	bash layerbench/run.sh --workload pipeline-paper --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a report
// with the host stamp, the sample count of every metric, failed_frac and
// job_tail_s. NOTES.md maps each layer metric to the end-to-end metric
// and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	// setups is how many times an untraced run sets the system up; it
	// reports the median and measures on the last one.
	setups int
	stream func(seed uint64) (stream, error)
	setup  func(dir string, seed uint64, rec *recorder) (system, error)
	// check validates the outcomes outside the timed region and returns
	// how many failed; extra is the number of check-only jobs it runs.
	check func(outs []outcome) (failed int, err error)
	extra int
}

var workloadDefs = []workloadDef{
	{
		name:   "pipeline-paper",
		why:    "the paper's run: core.Run over the 32 built-ins, so simulator and trace generation dominate and service, shard and cellcache are bypassed",
		setups: 5,
		stream: func(seed uint64) (stream, error) { return pipelineStream(seed), nil },
		setup:  func(_ string, _ uint64, rec *recorder) (system, error) { return setupPaper(rec) },
		check:  checkPaper,
		extra:  1,
	},
	{
		name:   "fleet-cold",
		why:    "a fresh cluster seed per CI-scale job, so every cell misses and is written and the shard protocol and suite synthesis show",
		setups: 3,
		stream: func(seed uint64) (stream, error) { return coldStream(seed), nil },
		setup:  setupCold,
		check:  checkFleet,
	},
	{
		name:   "fleet-warm",
		why:    "three quarters of each job's columns cached and one job in eight resubmitted, so synthesis, analysis and cache reads and writes show",
		setups: 3,
		stream: warmStream,
		setup:  setupWarm,
		check:  checkFleet,
	},
}

// setupCold starts a fleet and runs one warm-up job at a cluster seed
// outside the stream, so connections, the heap and lazily built state
// are in place before timing while the stream's columns stay uncached.
func setupCold(dir string, seed uint64, rec *recorder) (system, error) {
	f, err := startFleet(dir, rec)
	if err != nil {
		return nil, err
	}
	spec, err := fleetSpec(coldWorkloads, jobRand(seed, -2).Uint64(), nil)
	if err == nil {
		_, _, err = f.submitWait(spec, "", 0)
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warming up the cold fleet: %w", err)
	}
	return f, nil
}

// setupWarm starts a fleet and fills its stores with the pool's columns
// at the run's cluster seed.
func setupWarm(dir string, seed uint64, rec *recorder) (system, error) {
	f, err := startFleet(dir, rec)
	if err != nil {
		return nil, err
	}
	specs, err := prefillSpecs(seed)
	if err != nil {
		f.close()
		return nil, err
	}
	for _, spec := range specs {
		if _, _, err := f.submitWait(spec, "", 0); err != nil {
			f.close()
			return nil, fmt.Errorf("prefilling the warm fleet: %w", err)
		}
	}
	return f, nil
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runLimit bounds one run: past it the benchmark gives up without a
// result rather than hang on a stuck job.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "layerbench: run exceeded", runLimit)
		os.Exit(1)
	})
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pipeline-paper, fleet-cold or fleet-warm")
	seed := fs.Uint64("seed", 1, "seed of the generated job stream")
	secs := fs.Int("seconds", 15, "how long the measured loop runs")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	printGolden := fs.Bool("print-golden", false, "print the canonical pipeline-paper digests (golden.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *printGolden {
		g, err := canonicalDigests()
		if err != nil {
			return 1, err
		}
		data, _ := json.MarshalIndent(g, "", "  ") // a struct of strings and integers always encodes
		fmt.Fprintf(stdout, "%s\n", data)
		return 0, nil
	}
	w, ok := lookup(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *secs < 1 || *traceMode < 0 || *traceMode > 1 {
		return 2, fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}

	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	rep := map[string]any{"workload": w.name, "seed": *seed, "seconds": *secs, "trace": *traceMode, "host": hostStamp()}
	var res result
	var err error
	if *traceMode == 0 {
		res, err = measure(w, *seed, float64(*secs), scratch, rep)
	} else {
		res, err = measureLayers(w, *seed, float64(*secs), scratch, rep)
	}
	if err != nil {
		return 1, err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return 1, err
	}
	if err := enc.Encode(res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d jobs failed or gave wrong output", res.Failed, res.Attempted)
	}
	return 0, nil
}

// setUp sets the workload's system up n times, closing all but the last,
// and returns it with each set-up's duration.
func setUp(w workloadDef, n int, dir string, seed uint64, rec *recorder) (system, []float64, error) {
	var sys system
	var times []float64
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		sys, err = w.setup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), seed, rec)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	// Start the timed loop from the same heap state on every run: set-up
	// garbage collected and returned to the OS.
	debug.FreeOSMemory()
	return sys, times, nil
}

// drive runs the closed loop: each job starts when the previous one has
// its result. With jobs > 0 it runs exactly that many; otherwise it runs
// whole stream blocks until secs have passed.
func drive(sys system, st stream, secs float64, jobs int) ([]outcome, float64, error) {
	var outs []outcome
	t0 := time.Now()
	for i := 0; ; i++ {
		if jobs > 0 && i == jobs {
			break
		}
		if jobs == 0 && i > 0 && i%st.block == 0 && time.Since(t0).Seconds() >= secs {
			break
		}
		j, err := st.at(i)
		if err != nil {
			return nil, 0, fmt.Errorf("generating job %d: %w", i, err)
		}
		outs = append(outs, sys.run(j))
	}
	return outs, time.Since(t0).Seconds(), nil
}

func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.latency
	}
	return xs
}

// measure is an untraced run: set up, the timed loop, then the output
// check.
func measure(w workloadDef, seed uint64, secs float64, dir string, rep map[string]any) (result, error) {
	st, err := w.stream(seed)
	if err != nil {
		return result{}, err
	}
	sys, setups, err := setUp(w, w.setups, dir, seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	outs, wall, err := drive(sys, st, secs, 0)
	sys.close()
	if err != nil {
		return result{}, err
	}
	rss := peakRSSMB()
	failed, err := w.check(outs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench: check:", err)
	}
	res := result{Attempted: len(outs) + w.extra, Failed: failed}
	res.Correct = failed == 0 && err == nil

	lat := latencies(outs)
	var instr float64
	for _, o := range outs {
		instr += o.simInstr
	}
	c := newCollect()
	n := len(outs)
	c.set(endToEnd, "setup_s", median(setups), len(setups))
	c.set(endToEnd, "job_p50_s", median(lat), n)
	c.set(endToEnd, "jobs_per_s", float64(n)/wall, n)
	c.set(endToEnd, "sim_minstr_per_s", instr/sum(lat)/1e6, n)
	c.set(endToEnd, "peak_rss_mb", rss, 1)
	if err := c.complete(endToEnd); err != nil {
		return result{}, err
	}
	res.Metrics = c.values

	rep["samples"] = c.samples
	rep["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	rep["attempted"] = res.Attempted
	rep["job_s"] = lat
	if pct, v, ok := tailPercentile(lat); ok {
		rep["job_tail_s"] = map[string]any{"value": v, "unit": "s", "percentile": pct, "samples": n}
	} else {
		rep["job_tail_s"] = map[string]any{"omitted": fmt.Sprintf("%d jobs: fewer than 11", n)}
	}
	return res, nil
}
