package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// fleet is one bdcoord-shaped coordinator (a service.Manager driven by a
// shard.Executor) over one loopback bdservd worker, both with a data
// dir, a journal and a cell cache, wired as cmd/bdcoord and cmd/bdservd
// wire them.
type fleet struct {
	url    string
	worker *service.Manager
	srv    *http.Server
	served chan struct{}
	exec   *shard.Executor
	coord  *service.Manager
	creg   *obs.Registry // coordinator manager + executor
	wreg   *obs.Registry // worker
	http   *countingTransport
	rec    *recorder
}

// pollEvery is how often the client re-reads a running job's status.
const pollEvery = time.Millisecond

func startFleet(dir string, rec *recorder) (*fleet, error) {
	f := &fleet{creg: obs.NewRegistry(), wreg: obs.NewRegistry(), rec: rec}
	wdir, cdir := filepath.Join(dir, "worker"), filepath.Join(dir, "coord")
	var err error
	f.worker, err = service.New(service.Config{
		DataDir:          wdir,
		JournalPath:      filepath.Join(wdir, "journal.ndjson"),
		CellCacheDir:     filepath.Join(wdir, "cells"),
		CharacterizeOnly: true,
		Parallelism:      1,
		TraceService:     "bdservd",
		Registry:         f.wreg,
	})
	if err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.worker.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: service.NewHandler(f.worker)}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it
	}()

	base := http.DefaultTransport.(*http.Transport).Clone()
	base.ResponseHeaderTimeout = 30 * time.Second
	f.http = &countingTransport{base: base, rec: rec}
	f.exec, err = shard.New(shard.Config{
		Workers:      []string{f.url},
		HTTPClient:   &http.Client{Transport: f.http},
		Parallelism:  1,
		UnitCacheDir: filepath.Join(cdir, "units"),
		CellCacheDir: filepath.Join(cdir, "cells"),
		Registry:     f.creg,
	})
	if err != nil {
		f.closeWorker()
		return nil, fmt.Errorf("starting executor: %w", err)
	}
	f.coord, err = service.New(service.Config{
		DataDir:      cdir,
		JournalPath:  filepath.Join(cdir, "journal.ndjson"),
		Parallelism:  1,
		Execute:      f.execute,
		TraceService: "bdcoord",
		Registry:     f.creg,
	})
	if err != nil {
		f.exec.Close()
		f.closeWorker()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	return f, nil
}

// execute is the coordinator's ExecuteFunc: the shard executor, wrapped
// in a span when tracing.
func (f *fleet) execute(ctx context.Context, spec service.JobSpec, progress core.Progress) ([]byte, error) {
	if !f.rec.enabled() {
		return f.exec.Execute(ctx, spec, progress)
	}
	var job string
	if tc := obs.TraceFromContext(ctx); tc != nil {
		job = tc.JobID
	}
	sp := f.rec.start("shard.execute", "shard", job, f.rec.root(job))
	f.rec.setActive(sp)
	defer func() {
		f.rec.setActive(0)
		f.rec.end(sp)
	}()
	return f.exec.Execute(ctx, spec, progress)
}

func (f *fleet) closeWorker() {
	_ = f.srv.Close() // listener errors are moot at shutdown
	<-f.served
	f.worker.Close()
}

func (f *fleet) close() {
	f.coord.Close()
	f.exec.Close()
	f.http.base.CloseIdleConnections()
	f.closeWorker()
}

// counters reads the program's own registry counters the benchmark
// reports, summed over coordinator and worker where both keep one.
type counters struct {
	cacheLookups, cacheMisses       float64
	journalAppends                  float64
	cellHits, cellMisses, cellStore float64
	workerCellMisses                float64
	unitsDispatched                 float64
	httpRequests, httpBytes         float64
}

func (f *fleet) counters() counters {
	read := func(reg *obs.Registry, name string) float64 {
		v, _ := reg.ReadScalar(name) // absent until first use: zero
		return v
	}
	both := func(name string) float64 { return read(f.creg, name) + read(f.wreg, name) }
	units, _ := f.creg.ReadScalarSeries("bd_worker_units_dispatched_total", []string{f.url})
	return counters{
		cacheLookups:     both("bd_cache_requests_total"),
		cacheMisses:      both("bd_cache_misses_total"),
		journalAppends:   both("bd_journal_appends_total"),
		cellHits:         both("bd_cellcache_hits_total"),
		cellMisses:       both("bd_cellcache_misses_total"),
		cellStore:        both("bd_cellcache_stores_total"),
		workerCellMisses: read(f.wreg, "bd_cellcache_misses_total"),
		unitsDispatched:  units,
		httpRequests:     float64(f.http.requests.Load()),
		httpBytes:        float64(f.http.bytes.Load()),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		cacheLookups: c.cacheLookups - o.cacheLookups, cacheMisses: c.cacheMisses - o.cacheMisses,
		journalAppends: c.journalAppends - o.journalAppends,
		cellHits:       c.cellHits - o.cellHits, cellMisses: c.cellMisses - o.cellMisses,
		cellStore: c.cellStore - o.cellStore, workerCellMisses: c.workerCellMisses - o.workerCellMisses,
		unitsDispatched: c.unitsDispatched - o.unitsDispatched,
		httpRequests:    c.httpRequests - o.httpRequests, httpBytes: c.httpBytes - o.httpBytes,
	}
}

// submitWait submits spec and waits for its result bytes.
func (f *fleet) submitWait(spec service.JobSpec, traceJob string, root int) (service.JobStatus, []byte, error) {
	sp := f.rec.start("service.submit", "service", traceJob, root)
	st, err := f.coord.Submit(spec)
	f.rec.end(sp)
	if err != nil {
		return st, nil, fmt.Errorf("submit: %w", err)
	}
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCanceled {
			return st, nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollEvery)
		var ok bool
		if st, ok = f.coord.Get(st.ID); !ok {
			return st, nil, fmt.Errorf("job %s disappeared", st.ID)
		}
	}
	sp = f.rec.start("service.result", "service", traceJob, root)
	data, ok := f.coord.Result(st.ID)
	f.rec.end(sp)
	if !ok {
		return st, nil, fmt.Errorf("job %s: result not served", st.ID)
	}
	return st, data, nil
}

// countingTransport counts the coordinator's requests to its workers
// (health probes apart) and the bytes they carry, and records a span per
// request when tracing. A request's span ends when its response body is
// closed, so a streamed event feed spans the whole stream.
type countingTransport struct {
	base     *http.Transport
	rec      *recorder
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" {
		return t.base.RoundTrip(req)
	}
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	parent, job := t.rec.activeSpan()
	route, _ := obs.NormalizePath(req.URL.Path)
	sp := t.rec.start("http "+req.Method+" "+route, "shard.http", job, parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes, done: func() { t.rec.end(sp) }}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	once sync.Once
	done func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
