// Command bdservd serves the characterization + subsetting pipeline as a
// long-running HTTP service: clients POST jobs (a workload selection plus
// cluster/analysis configuration), the daemon executes them on a bounded
// pool over the parallel measurement grid, and identical submissions are
// deduplicated through a content-addressed result cache (in-memory LRU
// plus an on-disk JSON store under -data-dir).
//
// Job metadata is bounded (-max-jobs evicts the oldest terminal records)
// and persisted: unless disabled, lifecycle records are appended to an
// NDJSON journal under -data-dir and replayed on boot, so a restarted
// daemon still serves previously completed jobs' status and results.
// Every daemon serves POST /v1/cells, the one request per shard unit a
// bdcoord coordinator sends its workers; with -characterize-only it also
// accepts only observation-matrix jobs — the worker role. With
// -register it self-registers with a coordinator under a heartbeat
// lease (renewed every lease-ttl/3, retried with backoff across
// coordinator restarts) and releases the lease on shutdown.
//
// Usage:
//
//	bdservd [-addr :8356] [-data-dir bdservd-data] [-workers 1]
//	        [-queue 64] [-cache-entries 256] [-max-jobs 1024]
//	        [-journal auto] [-cell-cache auto] [-cell-cache-entries 0]
//	        [-cell-cache-max-age 0] [-characterize-only] [-parallelism 0]
//	        [-throttle-cell 0] [-drain-timeout 30s]
//	        [-log-level info] [-log-format text] [-stats-interval 1m]
//	        [-status-tick 5s] [-status-window 10m]
//	        [-trace-buffer 2048] [-pprof-addr localhost:6060]
//	        [-register http://coord:8360 -advertise http://thishost:8356
//	         -lease-ttl 30s]
//
// API (see DESIGN.md §4 for the full reference):
//
//	POST   /v1/jobs             submit a job
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result canonical analysis result JSON
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	GET    /v1/jobs/{id}/trace  trace export (?format=chrome)
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/cells            run one shard unit's grid, streamed
//	GET    /v1/cache/stats      cache counters
//	GET    /v1/status           full operational snapshot + time series
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdservd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8356", "listen address")
		dataDir = flag.String("data-dir", "bdservd-data", "on-disk result store ('' = memory only)")
		workers = flag.Int("workers", 1, "concurrently executing jobs")
		queue   = flag.Int("queue", 64, "max queued jobs")
		entries = flag.Int("cache-entries", 256, "in-memory LRU result entries")
		maxJobs = flag.Int("max-jobs", 1024, "max retained job records (oldest terminal evicted)")
		journal = flag.String("journal", "auto", "job journal path ('auto' = <data-dir>/journal.ndjson, '' = disabled)")
		cellDir = flag.String("cell-cache", "auto",
			"cell-level result cache dir ('auto' = <data-dir>/cells, '' = disabled): caches one workload×node column per entry so overlapping suites recompute only new cells")
		cellEntries = flag.Int("cell-cache-entries", 0,
			"max on-disk cell cache entries (0 = default)")
		cellMaxAge = flag.Duration("cell-cache-max-age", 0,
			"evict cell-cache entries older than this (mtime sweep; 0 = no age bound)")
		charOnly = flag.Bool("characterize-only", false,
			"accept only observation-matrix jobs (shard-worker role)")
		par      = flag.Int("parallelism", 0, "per-job grid parallelism (0 = GOMAXPROCS)")
		throttle = flag.Duration("throttle-cell", 0,
			"artificial sleep per completed grid cell (testing knob: simulates a slow worker; never affects results)")
		register = flag.String("register", "",
			"bdcoord base URL to self-register with (elastic fleet membership under a heartbeat lease)")
		advertise = flag.String("advertise", "",
			"own base URL to register as, e.g. http://thishost:8356 (required with -register)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second,
			"heartbeat lease length requested from the coordinator (with -register)")
		drain = flag.Duration("drain-timeout", 30*time.Second,
			"on SIGTERM/SIGINT: how long to let in-flight jobs finish before cutting them short")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text, json")
		statsIvl  = flag.Duration("stats-interval", time.Minute,
			"period of the one-line INFO stats summary (0 disables)")
		traceBuf = flag.Int("trace-buffer", 2048,
			"per-job flight-recorder span capacity (0 disables tracing)")
		statusTick = flag.Duration("status-tick", 5*time.Second,
			"sampling tick of the /v1/status time-series window")
		statusWindow = flag.Duration("status-window", 10*time.Minute,
			"trailing extent of the /v1/status time-series window")
		pprofAddr = flag.String("pprof-addr", "",
			"listen address for net/http/pprof (e.g. localhost:6060; empty = disabled; bind to localhost unless you mean to expose profiles)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	if *workers < 1 || *queue < 1 || *entries < 1 || *maxJobs < 1 || *par < 0 {
		return fmt.Errorf("-workers, -queue, -cache-entries and -max-jobs must be ≥1 and -parallelism ≥0")
	}
	if *register != "" && *advertise == "" {
		return fmt.Errorf("-register requires -advertise (the URL the coordinator should dial this daemon at)")
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive")
	}
	journalPath := *journal
	if journalPath == "auto" {
		journalPath = ""
		if *dataDir != "" {
			journalPath = filepath.Join(*dataDir, "journal.ndjson")
		}
	}
	cellCacheDir := *cellDir
	if cellCacheDir == "auto" {
		cellCacheDir = ""
		if *dataDir != "" {
			cellCacheDir = filepath.Join(*dataDir, "cells")
		}
	}

	// Flag semantics (0 = off) map to the config's (negative = off).
	traceSpans := *traceBuf
	if traceSpans == 0 {
		traceSpans = -1
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	sampler := obs.NewSampler(reg, *statusTick, *statusWindow, service.StatusSeriesDefs())
	mgr, err := service.New(service.Config{
		DataDir:          *dataDir,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *entries,
		MaxJobs:          *maxJobs,
		JournalPath:      journalPath,
		CharacterizeOnly: *charOnly,
		CellCacheDir:     cellCacheDir,
		CellCacheEntries: *cellEntries,
		CellCacheMaxAge:  *cellMaxAge,
		Parallelism:      *par,
		CellDelay:        *throttle,
		TraceBuffer:      traceSpans,
		TraceService:     "bdservd",
		Registry:         reg,
		Sampler:          sampler,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	stopSampler := sampler.Start()
	defer stopSampler()

	if *pprofAddr != "" {
		stopPprof, err := obs.StartPprof(*pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           obs.LogRequests(service.NewHandler(mgr), logger, reg),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("bdservd listening", "addr", *addr, "data_dir", *dataDir, "workers", *workers)

	stopStats := obs.StartStatsTicker(logger, *statsIvl, func() []slog.Attr {
		st := mgr.Stats()
		attrs := []slog.Attr{
			slog.Int("queued", st.Queued), slog.Int("running", st.Running),
			slog.Int("done", st.Done), slog.Int("failed", st.Failed),
			slog.Int("canceled", st.Canceled), slog.Int("queue_depth", st.QueueDepth),
			slog.Uint64("cache_hits", st.Cache.Hits), slog.Uint64("cache_misses", st.Cache.Misses),
			slog.Int("cache_entries", st.Cache.Entries),
		}
		if h, ok := reg.ReadHistogram("bd_stage_duration_seconds"); ok && h.Count > 0 {
			q := h.Quantiles(0.50, 0.95, 0.99)
			attrs = append(attrs,
				slog.Float64("stage_p50_s", q[0]),
				slog.Float64("stage_p95_s", q[1]),
				slog.Float64("stage_p99_s", q[2]))
		}
		return attrs
	})
	defer stopStats()

	var hb *heartbeat
	if *register != "" {
		hb = startHeartbeat(ctx, *register, *advertise, *leaseTTL, logger)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: release the lease first (the coordinator stops
	// dispatching new units here and releases any it had in flight), stop
	// accepting connections, then let running jobs drain.
	logger.Info("bdservd shutting down", "drain_timeout", *drain)
	if hb != nil {
		hb.close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !mgr.Drain(*drain) {
		logger.Warn("drain timeout: cutting in-flight jobs short")
	}
	return nil
}

// heartbeat maintains this worker's fleet membership on a coordinator:
// register with retry/backoff, then renew the lease every ttl/3 so a
// transient miss never lapses it, and release it on close.
type heartbeat struct {
	c    *client.Client
	self string
	log  *slog.Logger
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeartbeat(ctx context.Context, coordURL, selfURL string, ttl time.Duration, logger *slog.Logger) *heartbeat {
	hb := &heartbeat{c: client.New(coordURL), self: selfURL, log: logger, done: make(chan struct{})}
	hb.wg.Add(1)
	go func() {
		defer hb.wg.Done()
		registered := false
		backoff := time.Second
		for {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			err := hb.c.RegisterWorker(rctx, selfURL, ttl.Seconds())
			cancel()
			wait := ttl / 3
			switch {
			case err == nil && !registered:
				registered = true
				backoff = time.Second
				hb.log.Info("registered with coordinator", "coordinator", coordURL, "lease", ttl)
			case err != nil:
				// Keep trying: the coordinator may be restarting. Back off
				// so a long outage doesn't spin, but cap well under any
				// plausible lease so recovery is prompt.
				if registered {
					hb.log.Warn("heartbeat failed", "coordinator", coordURL, "error", err)
					registered = false
				}
				wait = backoff
				if backoff *= 2; backoff > 15*time.Second {
					backoff = 15 * time.Second
				}
			}
			select {
			case <-hb.done:
				return
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
	}()
	return hb
}

// close stops the renewal loop and releases the lease (best effort: an
// unreachable coordinator just expires it by TTL instead).
func (hb *heartbeat) close() {
	close(hb.done)
	hb.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hb.c.DeregisterWorker(ctx, hb.self); err != nil {
		hb.log.Warn("lease release failed (will expire by TTL)", "error", err)
	}
}
