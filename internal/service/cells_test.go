package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// postCells posts a cell run and decodes its whole NDJSON stream. It
// reports failures with t.Error, so other goroutines may call it too.
func postCells(t *testing.T, url string, req CellsRequest) (int, []CellsLine) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := http.Post(url+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var lines []CellsLine
	dec := json.NewDecoder(resp.Body)
	for {
		var ln CellsLine
		if err := dec.Decode(&ln); err == io.EOF {
			return resp.StatusCode, lines
		} else if err != nil {
			t.Errorf("decoding cells stream: %v", err)
			return resp.StatusCode, lines
		}
		lines = append(lines, ln)
	}
}

// TestCellsMatchObservationsJob: a cell run streams progress and
// heartbeats and ends with the exact bytes an observations job of the
// same spec produces, plus the worker's characterize stage span — and it
// leaves no job record, result-cache entry or journal record behind.
func TestCellsMatchObservationsJob(t *testing.T) {
	spec := tinySpec()
	spec.Mode = ModeObservations

	ref := newTestManager(t, Config{Parallelism: 2})
	st, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, ref, st.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("reference job finished %s: %s", fin.State, fin.Error)
	}
	want, _ := ref.Result(st.ID)

	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	m := newTestManager(t, Config{
		Parallelism: 2,
		JournalPath: journal,
		CellDelay:   20 * time.Millisecond,
		TraceBuffer: 64,
	})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	code, lines := postCells(t, srv.URL, CellsRequest{Spec: spec, Heartbeat: time.Millisecond})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/cells answered %d", code)
	}
	if len(lines) == 0 {
		t.Fatal("empty cells stream")
	}
	last := lines[len(lines)-1]
	if last.Type != "result" {
		t.Fatalf("stream ended with a %q line: %+v", last.Type, last)
	}
	got, err := last.CanonicalObservations()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("cell-run observations differ from the observations job's result bytes")
	}
	var progress, beats, maxDone int
	for _, ln := range lines[:len(lines)-1] {
		switch ln.Type {
		case "progress":
			progress++
			maxDone = max(maxDone, ln.Done)
		case "heartbeat":
			beats++
		default:
			t.Errorf("unexpected %q line before the result", ln.Type)
		}
	}
	if progress < 2 || beats == 0 {
		t.Errorf("stream had %d progress and %d heartbeat lines, want ≥2 and ≥1", progress, beats)
	}
	if cells := 2 * 2; maxDone != cells { // tinySpec: 2 workloads × 2 nodes × 1 run
		t.Errorf("progress reached %d cells, want %d", maxDone, cells)
	}
	stage := false
	for _, sp := range last.Spans {
		if sp.Name == string(core.StageCharacterize) && sp.Attrs["kind"] == "stage" {
			stage = true
		}
	}
	if !stage {
		t.Errorf("result spans carry no characterize stage span: %+v", last.Spans)
	}

	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("cell run left %d job records", len(jobs))
	}
	if cs := m.CacheStats(); cs.Stores != 0 {
		t.Errorf("cell run stored %d result-cache entries", cs.Stores)
	}
	if data, err := os.ReadFile(journal); err == nil && len(bytes.TrimSpace(data)) > 0 {
		t.Errorf("cell run wrote journal records:\n%s", data)
	}
}

// TestCellsRejectsBadRequests: request errors answer with a status code
// before any stream line — 400 for an undecodable body or a spec that is
// not observations-mode, 503 once the daemon drains.
func TestCellsRejectsBadRequests(t *testing.T) {
	m := newTestManager(t, Config{Execute: fakeExec(0)})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	if code, _ := postCells(t, srv.URL, CellsRequest{Spec: tinySpec()}); code != http.StatusBadRequest {
		t.Errorf("analyze-mode spec answered %d, want 400", code)
	}
	resp, err := http.Post(srv.URL+"/v1/cells", "application/json", bytes.NewReader([]byte(`{"spec":{},"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field answered %d, want 400", resp.StatusCode)
	}

	m.Drain(0)
	spec := tinySpec()
	spec.Mode = ModeObservations
	if code, _ := postCells(t, srv.URL, CellsRequest{Spec: spec}); code != http.StatusServiceUnavailable {
		t.Errorf("cell run while draining answered %d, want 503", code)
	}
}

// TestDrainWaitsForCellRuns: Drain does not report the daemon idle while
// a cell run is in flight, and does once the run has finished.
func TestDrainWaitsForCellRuns(t *testing.T) {
	m := newTestManager(t, Config{Parallelism: 1, CellDelay: 100 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := tinySpec()
	spec.Mode = ModeObservations
	done := make(chan []CellsLine, 1)
	go func() {
		_, lines := postCells(t, srv.URL, CellsRequest{Spec: spec})
		done <- lines
	}()
	deadline := time.Now().Add(10 * time.Second)
	for m.cellRuns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cell run never started")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Drain(20 * time.Millisecond) {
		t.Fatal("drain reported idle with a cell run in flight")
	}
	if !m.Drain(30 * time.Second) {
		t.Fatal("drain timed out waiting for the cell run")
	}
	lines := <-done
	if len(lines) == 0 || lines[len(lines)-1].Type != "result" {
		t.Errorf("the in-flight cell run did not finish with a result: %+v", lines)
	}
}
