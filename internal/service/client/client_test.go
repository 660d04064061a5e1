package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func writeNDJSON(w http.ResponseWriter, evs ...service.Event) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	f, _ := w.(http.Flusher)
	for _, ev := range evs {
		enc.Encode(ev)
		if f != nil {
			f.Flush()
		}
	}
}

// TestEventsReplaysToTerminal: the full stream — replayed history plus a
// terminal done event — is delivered to the callback in order and the
// call returns nil.
func TestEventsReplaysToTerminal(t *testing.T) {
	evs := []service.Event{
		{Seq: 1, Type: "state", State: service.StateQueued},
		{Seq: 2, Type: "state", State: service.StateRunning},
		{Seq: 3, Type: "progress", Stage: "characterize", Done: 4, Total: 8},
		{Seq: 4, Type: "done", ResultHash: "abc123"},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/events" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		writeNDJSON(w, evs...)
	}))
	defer srv.Close()

	var got []service.Event
	err := New(srv.URL).Events(context.Background(), "j1", func(ev service.Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("saw %d events, want %d", len(got), len(evs))
	}
	for i, ev := range evs {
		if got[i] != ev {
			t.Errorf("event %d = %+v, want %+v", i, got[i], ev)
		}
	}
}

// TestEventsMidStreamEOF: a stream that ends cleanly but before any
// terminal event must surface an error — the coordinator treats it as
// worker failure.
func TestEventsMidStreamEOF(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeNDJSON(w,
			service.Event{Seq: 1, Type: "state", State: service.StateRunning},
			service.Event{Seq: 2, Type: "progress", Done: 1, Total: 8},
		)
	}))
	defer srv.Close()

	seen := 0
	err := New(srv.URL).Events(context.Background(), "j1", func(service.Event) error {
		seen++
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "before a terminal event") {
		t.Fatalf("mid-stream EOF err = %v, want terminal-event error", err)
	}
	if seen != 2 {
		t.Errorf("callback saw %d events before the EOF, want 2", seen)
	}
}

// TestEventsCallbackErrorStopsStream: the callback's own error aborts the
// stream and is returned verbatim.
func TestEventsCallbackErrorStopsStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeNDJSON(w,
			service.Event{Seq: 1, Type: "state", State: service.StateRunning},
			service.Event{Seq: 2, Type: "error", Error: "boom"},
			service.Event{Seq: 3, Type: "done"},
		)
	}))
	defer srv.Close()

	want := errors.New("job failed")
	err := New(srv.URL).Events(context.Background(), "j1", func(ev service.Event) error {
		if ev.Type == "error" {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("callback error not surfaced: %v", err)
	}
}

// TestEventsContextCancel: cancelling the context while the server holds
// the stream open must end the call promptly with an error.
func TestEventsContextCancel(t *testing.T) {
	first := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeNDJSON(w, service.Event{Seq: 1, Type: "state", State: service.StateRunning})
		close(first)
		<-r.Context().Done() // hold the stream open, never terminal
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-first
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- New(srv.URL).Events(ctx, "j1", func(service.Event) error { return nil })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled Events returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Events did not return after context cancellation")
	}
}

// TestNon2xxErrorSurfacing: the daemon's {"error": ...} body must reach
// the caller for every entry point, with the bare status as fallback.
func TestNon2xxErrorSurfacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/events"):
			http.Error(w, `{"error":"unknown job \"zzz\""}`, http.StatusNotFound)
		case r.Method == http.MethodPost:
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
		case strings.HasSuffix(r.URL.Path, "/result"):
			// Not JSON: the status line alone must still surface.
			http.Error(w, "plain text panic", http.StatusInternalServerError)
		default:
			http.Error(w, `{"error":"nope"}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	if _, err := c.Submit(ctx, service.JobRequest{}); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Errorf("Submit error %v, want daemon message", err)
	}
	if _, err := c.Job(ctx, "zzz"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Job error %v, want daemon message", err)
	}
	if _, err := c.Result(ctx, "zzz"); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("Result error %v, want status fallback", err)
	}
	if err := c.Events(ctx, "zzz", func(service.Event) error { return nil }); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Events error %v, want daemon message", err)
	}
	if err := c.Cancel(ctx, "zzz"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Cancel error %v, want daemon message", err)
	}
	if err := c.Health(ctx); err == nil || !strings.Contains(err.Error(), "unhealthy") {
		t.Errorf("Health error %v, want unhealthy wrap", err)
	}
}

// TestSubmitAndResultRoundtrip: Submit posts the request body and decodes
// the accepted status; Result returns the raw bytes.
func TestSubmitAndResultRoundtrip(t *testing.T) {
	resultBody := []byte(`{"best_k": 3}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			var req service.JobRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("submit body: %v", err)
			}
			if len(req.Workloads) != 2 {
				t.Errorf("submit lost workloads: %+v", req)
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(service.JobStatus{ID: "cafe", State: service.StateQueued})
		case r.URL.Path == "/v1/jobs/cafe/result":
			w.Write(resultBody)
		case r.URL.Path == "/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL + "/") // trailing slash must be tolerated by New
	if c.BaseURL != srv.URL {
		t.Errorf("New kept trailing slash: %q", c.BaseURL)
	}
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	st, err := c.Submit(ctx, service.JobRequest{Workloads: []string{"H-Sort", "S-Sort"}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "cafe" || st.State != service.StateQueued {
		t.Fatalf("Submit status %+v", st)
	}
	data, err := c.Result(ctx, "cafe")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(data) != string(resultBody) {
		t.Fatalf("Result bytes %q, want %q", data, resultBody)
	}
}

// TestWaitDone follows a stream to its terminal event and fetches the
// final status.
func TestWaitDone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			writeNDJSON(w,
				service.Event{Seq: 1, Type: "state", State: service.StateRunning},
				service.Event{Seq: 2, Type: "done", ResultHash: "ff00"},
			)
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{ID: "j9", State: service.StateDone, ResultHash: "ff00"})
	}))
	defer srv.Close()

	var seen int
	st, err := New(srv.URL).WaitDone(context.Background(), "j9", func(service.Event) { seen++ })
	if err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if st.State != service.StateDone || st.ResultHash != "ff00" {
		t.Fatalf("WaitDone status %+v", st)
	}
	if seen != 2 {
		t.Errorf("onEvent saw %d events, want 2", seen)
	}
}

// TestEventsCanceledStateIsTerminal: a state=canceled event ends the
// stream without error even though the connection stays open server-side.
func TestEventsCanceledStateIsTerminal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeNDJSON(w,
			service.Event{Seq: 1, Type: "state", State: service.StateQueued},
			service.Event{Seq: 2, Type: "state", State: service.StateCanceled},
		)
	}))
	defer srv.Close()
	err := New(srv.URL).Events(context.Background(), "j1", func(service.Event) error { return nil })
	if err != nil {
		t.Fatalf("canceled-terminal stream errored: %v", err)
	}
}

// TestStatusRoundTrip decodes a real manager's /v1/status through the
// client: a submitted job must be visible in the state counts and the
// snapshot's identity fields must be populated.
func TestStatusRoundTrip(t *testing.T) {
	mgr, err := service.New(service.Config{Workers: 1, TraceService: "bdservd"})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(service.NewHandler(mgr))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()

	nodes, runs := 2, 1
	st, err := c.Submit(ctx, service.JobRequest{Workloads: []string{"H-Sort", "S-Sort"}, Nodes: &nodes, Runs: &runs})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.WaitDone(ctx, st.ID, nil); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}

	snap, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if snap.Service != "bdservd" {
		t.Errorf("service = %q, want bdservd", snap.Service)
	}
	if snap.PID == 0 || snap.GoVersion == "" || snap.Goroutines == 0 {
		t.Errorf("process identity incomplete: %+v", snap)
	}
	if snap.Jobs.Done != 1 {
		t.Errorf("jobs done = %d, want 1", snap.Jobs.Done)
	}
	if snap.Queue.Capacity == 0 || snap.Queue.Workers != 1 {
		t.Errorf("queue shape %+v", snap.Queue)
	}
	if snap.UptimeSeconds < 0 || snap.Now.IsZero() {
		t.Errorf("clock fields %+v", snap)
	}
}

// TestStatusNon2xx surfaces the daemon error body on a failed status
// fetch instead of decoding garbage.
func TestStatusNon2xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"status exploded"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := New(srv.URL).Status(context.Background()); err == nil || !strings.Contains(err.Error(), "status exploded") {
		t.Fatalf("Status error = %v, want daemon message", err)
	}
}

// cellsServer answers POST /v1/cells with the given lines, after checking
// the request carries the spec and heartbeat it was sent.
func cellsServer(t *testing.T, lines ...service.CellsLine) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.CellsRequest
		if r.Method != http.MethodPost || r.URL.Path != "/v1/cells" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Spec.Mode != service.ModeObservations || req.Heartbeat != time.Second {
			t.Errorf("request body decoded to %+v (%v)", req, err)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ln := range lines {
			enc.Encode(ln)
		}
	}))
}

func cellsRequest() service.CellsRequest {
	return service.CellsRequest{Spec: service.JobSpec{Mode: service.ModeObservations}, Heartbeat: time.Second}
}

// TestCellsLargeFinalRecord: the stream is decoded value by value, so a
// final record far beyond any line buffer (here over 1 MiB) arrives
// whole, after the progress and heartbeat lines reach the callback.
func TestCellsLargeFinalRecord(t *testing.T) {
	big := `{"labels":["` + strings.Repeat("x", 3<<20/2) + `"]}`
	srv := cellsServer(t,
		service.CellsLine{Type: "progress"},
		service.CellsLine{Type: "heartbeat"},
		service.CellsLine{Type: "progress", Done: 1, Total: 1},
		service.CellsLine{Type: "result", Observations: json.RawMessage(big)},
	)
	defer srv.Close()

	var seen []string
	res, err := New(srv.URL).Cells(context.Background(), cellsRequest(), func(ln service.CellsLine) {
		seen = append(seen, ln.Type)
	})
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if string(res.Observations) != big {
		t.Errorf("final record observations: %d bytes, want %d", len(res.Observations), len(big))
	}
	if got := strings.Join(seen, ","); got != "progress,heartbeat,progress" {
		t.Errorf("callback saw %s, want progress,heartbeat,progress", got)
	}
}

// TestCellsEOFBeforeResult: a stream that ends cleanly before its final
// record is an error — the coordinator treats it as worker failure — and
// so is a worker's error line.
func TestCellsEOFBeforeResult(t *testing.T) {
	srv := cellsServer(t, service.CellsLine{Type: "progress"}, service.CellsLine{Type: "progress", Done: 1, Total: 2})
	defer srv.Close()
	seen := 0
	_, err := New(srv.URL).Cells(context.Background(), cellsRequest(), func(service.CellsLine) { seen++ })
	if err == nil || !strings.Contains(err.Error(), "before the result") {
		t.Fatalf("EOF before result: err = %v, want stream-ended error", err)
	}
	if seen != 2 {
		t.Errorf("callback saw %d lines before the EOF, want 2", seen)
	}

	failed := cellsServer(t, service.CellsLine{Type: "progress"}, service.CellsLine{Type: "error", Error: "grid exploded"})
	defer failed.Close()
	if _, err := New(failed.URL).Cells(context.Background(), cellsRequest(), func(service.CellsLine) {}); err == nil || !strings.Contains(err.Error(), "grid exploded") {
		t.Fatalf("error line: err = %v, want the worker's message", err)
	}
}

// TestCellsNon2xx: a refused run surfaces the daemon's error message.
func TestCellsNon2xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"service: draining for shutdown"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	_, err := New(srv.URL).Cells(context.Background(), cellsRequest(), func(service.CellsLine) {})
	if err == nil || !strings.Contains(err.Error(), "draining for shutdown") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("non-2xx: err = %v, want status and daemon message", err)
	}
}
