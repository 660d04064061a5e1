package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
	"repro/internal/service"
)

// A job is one request of a workload's closed-loop stream. Jobs are a
// pure function of (seed, index): the program sees nothing else.
type job struct {
	Index int
	// Seed is the cluster seed of a pipeline-paper job.
	Seed uint64
	// Spec is the fleet job specification (fleet workloads only).
	Spec service.JobSpec
	// Resubmits is the index of the earlier job this one repeats
	// exactly, or -1.
	Resubmits int
}

// stream generates the jobs of one workload run.
type stream struct {
	// block is the stream's period: runs stop only at a block boundary,
	// so per-job counts repeat exactly whatever the run length.
	block int
	at    func(i int) (job, error)
}

// Harness scale of the paper pipeline (EXPERIMENTS.md §3).
const (
	paperNodes  = 2
	paperInstr  = 12000
	paperSlices = 60
)

// CI-scale fleet spec (scripts/smoke_bdcoord.sh).
const (
	fleetNodes = 2
	fleetInstr = 6000
	fleetKMax  = 3
)

var coldWorkloads = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}

// warmPool is the workload set whose columns the warm fleet's set-up
// computes; prefill lists it as the set-up's two jobs.
var (
	warmPool = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep",
		"H-WordCount", "S-WordCount", "H-Bayes", "S-Bayes"}
	prefill = [][]string{warmPool[:4], warmPool[4:]}
)

// warmBlock is the warm stream's period: seven jobs with one new
// workload each, then one exact resubmission.
const warmBlock = 8

func jobRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)^0x9e3779b97f4a7c15))
}

// paperClusterConfig is the cluster configuration of a pipeline-paper
// job with the given seed.
func paperClusterConfig(seed uint64) cluster.Config {
	c := cluster.DefaultConfig()
	c.SlaveNodes = paperNodes
	c.InstructionsPerCore = paperInstr
	c.Slices = paperSlices
	c.Seed = seed
	c.Parallelism = 1
	return c
}

func paperAnalysisConfig() core.AnalysisConfig {
	a := core.DefaultAnalysis()
	a.Parallelism = 1
	return a
}

// pipelineStream: the 32 built-ins at harness scale, a fresh cluster
// seed per job.
func pipelineStream(seed uint64) stream {
	return stream{block: 1, at: func(i int) (job, error) {
		return job{Index: i, Seed: jobRand(seed, i).Uint64(), Resubmits: -1}, nil
	}}
}

// fleetSpec is the CI-scale spec over names at the given cluster seed.
func fleetSpec(names []string, clusterSeed uint64, defs []custom.Definition) (service.JobSpec, error) {
	kmax, nodes, instr := fleetKMax, fleetNodes, fleetInstr
	req := service.JobRequest{
		Workloads:       append([]string(nil), names...),
		CustomWorkloads: defs,
		Nodes:           &nodes,
		Instructions:    &instr,
		KMax:            &kmax,
	}
	spec, err := req.ToSpec()
	if err != nil {
		return spec, err
	}
	spec.Cluster.Seed = clusterSeed
	return spec, nil
}

// coldStream: the CI-scale spec with a fresh cluster seed per job, so
// every column misses every cache.
func coldStream(seed uint64) stream {
	return stream{block: 1, at: func(i int) (job, error) {
		spec, err := fleetSpec(coldWorkloads, jobRand(seed, i).Uint64(), nil)
		return job{Index: i, Spec: spec, Resubmits: -1}, err
	}}
}

// warmClusterSeed is the one cluster seed of a warm run.
func warmClusterSeed(seed uint64) uint64 { return jobRand(seed, -1).Uint64() }

// prefillSpecs are the warm set-up's jobs: the whole pool at the run's
// cluster seed.
func prefillSpecs(seed uint64) ([]service.JobSpec, error) {
	var out []service.JobSpec
	for _, names := range prefill {
		spec, err := fleetSpec(names, warmClusterSeed(seed), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// warmStream: at one cluster seed, each job takes three pool workloads
// (already computed by the set-up) and one new workload — a raw custom
// definition copying a pool workload's profile under a new name, so its
// columns are new while its cost matches the pool's. The last job of
// every block of warmBlock resubmits an earlier job of the block.
func warmStream(seed uint64) (stream, error) {
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		return stream{}, err
	}
	pool, err := workloads.Select(suite, warmPool)
	if err != nil {
		return stream{}, err
	}
	cseed := warmClusterSeed(seed)
	var at func(i int) (job, error)
	at = func(i int) (job, error) {
		r := jobRand(seed, i)
		if i%warmBlock == warmBlock-1 {
			prev := i - 1 - r.IntN(warmBlock-1)
			j, err := at(prev)
			j.Index, j.Resubmits = i, prev
			return j, err
		}
		perm := r.Perm(len(pool))
		names := []string{pool[perm[0]].Name, pool[perm[1]].Name, pool[perm[2]].Name}
		prof := pool[perm[r.IntN(len(perm))]].Profile
		name := fmt.Sprintf("Fresh-%d", i)
		def := custom.Definition{Name: name, Raw: &prof}
		pos := r.IntN(len(names) + 1)
		names = append(names[:pos], append([]string{name}, names[pos:]...)...)
		spec, err := fleetSpec(names, cseed, []custom.Definition{def})
		return job{Index: i, Spec: spec, Resubmits: -1}, err
	}
	return stream{block: warmBlock, at: at}, nil
}
