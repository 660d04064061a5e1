package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/service"
)

// outcome is one job as the client saw it.
type outcome struct {
	job      job
	latency  float64 // seconds, submit to result in hand
	simInstr float64 // simulated instructions the job caused
	status   service.JobStatus
	result   []byte
	an       *core.Analysis
	err      error
}

// system is a workload's system under test, set up and ready for jobs.
type system interface {
	run(j job) outcome
	close()
}

// paperCells is the grid cells one pipeline-paper job simulates.
func paperCells() int {
	c := paperClusterConfig(0)
	return len(workloads.BuiltinNames()) * c.SlaveNodes * c.Runs
}

// paperSpec is the service spec of pipeline-paper job j, for the
// spec-level microprobes.
func paperSpec(j job) service.JobSpec {
	spec := service.DefaultSpec()
	spec.Cluster = paperClusterConfig(j.Seed)
	spec.Analysis = paperAnalysisConfig()
	return spec
}

// paperSystem runs pipeline-paper jobs with core.Run in-process.
type paperSystem struct{ rec *recorder }

func setupPaper(rec *recorder) (system, error) {
	if _, err := workloads.Suite(workloads.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := paperClusterConfig(1).Validate(); err != nil {
		return nil, err
	}
	return &paperSystem{rec: rec}, nil
}

func (p *paperSystem) close() {}

func (p *paperSystem) run(j job) outcome {
	o := outcome{job: j}
	ccfg := paperClusterConfig(j.Seed)
	t0 := time.Now()
	if p.rec.enabled() {
		o.an, o.err = p.traced(j)
	} else {
		o.an, o.err = core.Run(workloads.DefaultConfig(), ccfg, paperAnalysisConfig())
	}
	o.latency = time.Since(t0).Seconds()
	o.simInstr = float64(paperCells() * ccfg.Machine.Cores() * ccfg.InstructionsPerCore)
	return o
}

// traced is core.Run's own sequence of calls, each in a span.
func (p *paperSystem) traced(j job) (*core.Analysis, error) {
	id := fmt.Sprintf("paper-%d", j.Index)
	root := p.rec.start("job", "bench", id, 0)
	defer p.rec.end(root)
	ctx := context.Background()

	sp := p.rec.start("workloads.suite", "workloads", id, root)
	suite, err := workloads.Suite(workloads.DefaultConfig())
	p.rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = p.rec.start("cluster.grid", "cluster", id, root)
	ds, err := core.CharacterizeSuiteCtx(ctx, suite, paperClusterConfig(j.Seed), nil)
	p.rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = p.rec.start("core.analyze", "core", id, root)
	defer p.rec.end(sp)
	timer := core.NewStageTimer(nil, nil)
	timer.OnSpan(func(stage core.Stage, start, end time.Time) {
		p.rec.add("core."+string(stage), "core", id, sp, start, end)
	})
	an, err := core.AnalyzeCtx(ctx, ds, paperAnalysisConfig(), timer.Progress)
	timer.Finish()
	return an, err
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the digests of the canonical pipeline-paper job: the
// default cluster seed at harness scale.
type golden struct {
	ClusterSeed   uint64 `json:"cluster_seed"`
	DatasetSHA256 string `json:"dataset_sha256"`
	AnalysisSHA   string `json:"analysis_sha256"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// canonicalDigests runs the canonical pipeline-paper job and digests its
// observation matrix (the characterized dataset) and its analysis.
func canonicalDigests() (golden, error) {
	g := golden{ClusterSeed: cluster.DefaultConfig().Seed}
	an, err := core.Run(workloads.DefaultConfig(), paperClusterConfig(g.ClusterSeed), paperAnalysisConfig())
	if err != nil {
		return g, err
	}
	ds, err := benchio.MarshalCanonical(benchio.EncodeDataset(an.Dataset))
	if err != nil {
		return g, err
	}
	a, err := benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
	if err != nil {
		return g, err
	}
	g.DatasetSHA256, g.AnalysisSHA = sha(ds), sha(a)
	return g, nil
}

// checkPaper validates each pipeline-paper job's analysis, then compares
// the canonical job's digests with the committed ones. It returns the
// number of failed checks; the canonical job counts as one more attempt.
func checkPaper(outs []outcome) (failed int, err error) {
	names := workloads.BuiltinNames()
	for i := range outs {
		o := &outs[i]
		if o.err == nil {
			o.err = checkAnalysis(o.an, names)
		}
		if o.err != nil {
			failed++
		}
	}
	var want golden
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return failed, fmt.Errorf("reading golden.json: %w", err)
	}
	got, err := canonicalDigests()
	if err != nil {
		return failed, err
	}
	if got != want {
		failed++
		return failed, fmt.Errorf("canonical pipeline-paper job: digests %+v, committed %+v", got, want)
	}
	return failed, nil
}

// checkAnalysis checks the shape and sanity of one paper analysis.
func checkAnalysis(an *core.Analysis, names []string) error {
	if an == nil || an.Dataset == nil || an.KBest == nil {
		return fmt.Errorf("incomplete analysis")
	}
	if !slices.Equal(an.Dataset.Labels, names) {
		return fmt.Errorf("dataset rows %v, want the %d built-ins", an.Dataset.Labels, len(names))
	}
	for _, row := range an.Dataset.Rows {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite metric in dataset")
			}
		}
	}
	acfg := core.DefaultAnalysis()
	if k := an.KBest.K; k < acfg.KMin || k > acfg.KMax || len(an.SubsetNames()) != k {
		return fmt.Errorf("best K %d with %d representatives", k, len(an.SubsetNames()))
	}
	return nil
}

func (f *fleet) run(j job) outcome {
	o := outcome{job: j}
	var id string
	root := 0
	if f.rec.enabled() {
		id, _ = j.Spec.ID() // a bad spec fails Submit below, with the error
		root = f.rec.start("job", "bench", id, 0)
	}
	before := f.counters().workerCellMisses
	t0 := time.Now()
	o.status, o.result, o.err = f.submitWait(j.Spec, id, root)
	o.latency = time.Since(t0).Seconds()
	f.rec.end(root)
	c := j.Spec.Cluster
	o.simInstr = (f.counters().workerCellMisses - before) * float64(c.Runs*c.Machine.Cores()*c.InstructionsPerCore)
	if f.rec.enabled() && o.err == nil && !o.status.CacheHit {
		f.importStages(id, t0)
	}
	f.rec.nest(id, root)
	return o
}

// importStages copies the stage spans of the program's own trace of job
// id into the recorder: the worker's characterize stage (the simulation
// grid) and the coordinator's analysis stages.
func (f *fleet) importStages(id string, since time.Time) {
	exp, ok := f.coord.Trace(id)
	if !ok {
		return
	}
	for _, s := range exp.Spans {
		if s.Attrs["kind"] != "stage" || s.Start.Before(since) {
			continue
		}
		switch {
		case s.Worker != "" && s.Name == string(core.StageCharacterize):
			f.rec.add("cluster.grid", "cluster", id, 0, s.Start, s.End)
		case s.Worker == "" && s.Name != string(core.StageCharacterize):
			f.rec.add("core."+s.Name, "core", id, 0, s.Start, s.End)
		}
	}
}

// rows memoizes single-workload characterizations for the in-process
// reference, keyed by the workload's full definition and the cluster
// configuration. A workload's row depends on nothing else (per-cell
// seeds are keyed by workload name and absolute node), so the reference
// computes each row of a run once however many jobs share it — the warm
// stream's pool rows in particular.
type rows map[string]*core.Dataset

// characterize is core.CharacterizeSuiteCtx assembled one workload at a
// time.
func (r rows) characterize(suite []workloads.Workload, ccfg cluster.Config) (*core.Dataset, error) {
	ds := &core.Dataset{Metrics: perf.MetricNames(), Suite: suite}
	for _, w := range suite {
		key, err := json.Marshal(struct {
			W workloads.Workload
			C cluster.Config
		}{w, ccfg})
		if err != nil {
			return nil, err
		}
		one, ok := r[string(key)]
		if !ok {
			one, err = core.CharacterizeSuiteCtx(context.Background(), []workloads.Workload{w}, ccfg, nil)
			if err != nil {
				return nil, err
			}
			r[string(key)] = one
		}
		ds.Labels = append(ds.Labels, one.Labels...)
		ds.Rows = append(ds.Rows, one.Rows...)
		ds.Measurements = append(ds.Measurements, one.Measurements...)
	}
	return ds, nil
}

// inProcess computes spec's result bytes as a single bdservd does
// (service.Manager's local executor: characterize, analyze, canonical
// JSON), with parallelism 1, no service, shard or cellcache code, and
// the characterization assembled row by row from r.
func (r rows) inProcess(spec service.JobSpec) ([]byte, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	suite, err := n.ResolveSuite()
	if err != nil {
		return nil, err
	}
	ccfg := n.Cluster
	ccfg.Parallelism = 1
	ds, err := r.characterize(suite, ccfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	acfg := n.Analysis
	acfg.Parallelism = 1
	an, err := core.AnalyzeCtx(ctx, ds, acfg, nil)
	if err != nil {
		return nil, err
	}
	return benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
}

// checkFleet compares every fleet result with an in-process computation
// of the same spec: the bytes and the program's result hash must match.
// A resubmission is checked against the same computation, so warm
// (cached) results are held to the cold bytes. It returns the number of
// failed jobs.
func checkFleet(outs []outcome) (failed int, err error) {
	want := map[string][]byte{}
	ref := rows{}
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			failed++
			continue
		}
		b, ok := want[o.status.ID]
		if !ok {
			if b, err = ref.inProcess(o.job.Spec); err != nil {
				return failed, fmt.Errorf("in-process check of job %d: %w", o.job.Index, err)
			}
			want[o.status.ID] = b
		}
		if !bytes.Equal(o.result, b) || o.status.ResultHash != sha(b) {
			o.err = fmt.Errorf("job %d (%s): fleet result differs from the in-process result", o.job.Index, o.status.ID)
			failed++
		}
	}
	return failed, nil
}
