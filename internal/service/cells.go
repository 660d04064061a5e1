package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// POST /v1/cells is the shard-unit protocol. A coordinator sends one
// unit's sub-spec per request; the worker runs the unit's grid
// synchronously, under the executor bound its jobs share, and streams
// NDJSON lines back: progress per characterized cell (grid workers report
// concurrently, so counts may arrive out of order), a heartbeat every
// requested interval (also while the run waits for a slot), and one final
// result or error line. A unit leaves no job record, result-cache entry
// or journal record on the worker: the coordinator's unit store and
// journal are its only bookkeeping, the worker's cell cache its only
// reuse.

// CellsRequest is the body of POST /v1/cells.
type CellsRequest struct {
	Spec JobSpec `json:"spec"` // the unit's sub-spec; observations mode only
	// Heartbeat is the interval of heartbeat lines (0 = none, floor
	// 10ms): the liveness signal the coordinator's stall detection reads.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
}

// CellsLine is one line of the POST /v1/cells stream, which ends with
// exactly one "result" or "error" line.
type CellsLine struct {
	Type  string `json:"type"` // "progress" | "heartbeat" | "result" | "error"
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// Observations (on result) is the unit's ObservationsJSON, compacted
	// by the line encoding (see CanonicalObservations).
	Observations json.RawMessage `json:"observations,omitempty"`
	Spans        []obs.Span      `json:"spans,omitempty"` // on result: the worker's spans for the run
	Error        string          `json:"error,omitempty"`
}

// CanonicalObservations returns a result line's observations in the
// canonical layout benchio.MarshalCanonical writes. Indenting only adds
// back the insignificant whitespace the line encoding removed, so this
// restores the worker's bytes exactly.
func (ln CellsLine) CanonicalObservations() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, ln.Observations, "", "  "); err != nil {
		return nil, fmt.Errorf("service: cells result observations: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// serveCells is the POST /v1/cells handler. A draining daemon answers 503
// and a bad request 400, before any line. The run is counted before the
// draining check, so a Drain that saw no run in flight is never followed
// by an admitted one.
func (m *Manager) serveCells(w http.ResponseWriter, r *http.Request) {
	m.cellRuns.Add(1)
	defer m.cellRuns.Add(-1)
	if m.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var req CellsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		req.Spec, err = req.Spec.Normalized()
	}
	if err == nil && req.Spec.Mode != ModeObservations {
		err = fmt.Errorf("service: /v1/cells runs only mode %q specs", ModeObservations)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc, rc := json.NewEncoder(w), http.NewResponseController(w)
	var mu sync.Mutex // grid workers, the heartbeat and the handler all write lines
	send := func(ln CellsLine) {
		mu.Lock()
		defer mu.Unlock()
		// A failed write means the client is gone; the server then cancels
		// r.Context(), which stops the run.
		if enc.Encode(ln) == nil {
			rc.Flush()
		}
	}
	send(CellsLine{Type: "progress"})
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var beating sync.WaitGroup
	if req.Heartbeat > 0 {
		beating.Add(1)
		go func() {
			defer beating.Done()
			t := time.NewTicker(max(req.Heartbeat, 10*time.Millisecond))
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					send(CellsLine{Type: "heartbeat"})
				}
			}
		}()
	}
	data, spans, err := m.runCells(ctx, req.Spec, func(done, total int) {
		send(CellsLine{Type: "progress", Done: done, Total: total})
	})
	cancel() // no heartbeat after the final line
	beating.Wait()
	if err != nil {
		send(CellsLine{Type: "error", Error: err.Error()})
		return
	}
	send(CellsLine{Type: "result", Observations: data, Spans: spans})
}

// runCells runs a normalized observations spec's grid once an executor
// slot is free, through the local executor jobs use (cell cache, cell
// throttle, stage histogram). It returns the canonical observation bytes
// and, when tracing, the run's spans — a "cells" root over the slot's
// queue-wait, the characterize stage and the cell-cache probe.
func (m *Manager) runCells(ctx context.Context, spec JobSpec, progress func(done, total int)) ([]byte, []obs.Span, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(m.root, cancel)()
	var tc *obs.TraceContext
	if m.tracer.Enabled() {
		rec := obs.NewFlightRecorder(m.tracer.Service(), 1, 32) // a run records a handful of spans
		tc = &obs.TraceContext{Rec: rec, JobID: "cells", TraceID: "cells", Root: rec.NewSpanID()}
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	start := time.Now()
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	tc.RecordInterval("", "queue-wait", start, time.Now(), map[string]string{"status": "ok"})
	timer := m.newStageTimer(func(stage core.Stage, done, total int) {
		if stage == core.StageCharacterize && total > 0 {
			if m.cfg.CellDelay > 0 {
				time.Sleep(m.cfg.CellDelay)
			}
			progress(done, total)
		}
	}, tc)
	data, err := m.executeLocal(ctx, spec, timer.Progress)
	timer.Finish()
	if err != nil || tc == nil {
		return data, nil, err
	}
	tc.Rec.Record(tc.JobID, obs.Span{TraceID: tc.TraceID, ID: tc.Root, Name: "cells",
		Start: start, End: time.Now(), Attrs: map[string]string{"status": "ok"}})
	exp, _ := tc.Rec.Export(tc.JobID)
	return data, exp.Spans, nil
}
