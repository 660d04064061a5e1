package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for _, bad := range []string{"", "verbose", "trace"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) accepted", bad)
		}
	}
	if lvl, err := ParseLevel(" WARN "); err != nil || lvl.String() != "WARN" {
		t.Errorf("ParseLevel(WARN) = %v, %v", lvl, err)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var b strings.Builder
	logger, err := NewLogger(&b, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "job", "abc")
	var line map[string]any
	if err := json.Unmarshal([]byte(b.String()), &line); err != nil {
		t.Fatalf("json format produced non-JSON line %q: %v", b.String(), err)
	}
	if line["msg"] != "hello" || line["job"] != "abc" {
		t.Errorf("json line = %v", line)
	}
	if _, err := NewLogger(&b, "info", "xml"); err == nil {
		t.Errorf("unknown format accepted")
	}
	logger, err = NewLogger(&b, "error", "text")
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	logger.Info("suppressed")
	if b.Len() != 0 {
		t.Errorf("level filter failed: %q", b.String())
	}
}

func TestNormalizePath(t *testing.T) {
	id := strings.Repeat("ab", 16)
	cases := []struct{ in, route, job string }{
		{"/v1/jobs", "/v1/jobs", ""},
		{"/v1/jobs/" + id, "/v1/jobs/{id}", id},
		{"/v1/jobs/" + id + "/result", "/v1/jobs/{id}/result", id},
		{"/v1/jobs/" + id + "/events", "/v1/jobs/{id}/events", id},
		{"/healthz", "/healthz", ""},
		{"/metrics", "/metrics", ""},
		{"/v1/cache/stats", "/v1/cache/stats", ""},
		{"/v1/workers", "/v1/workers", ""},
		{"/v1/cells", "/v1/cells", ""},
		{"/", "/", ""},                         // root is unknown…
		{"/admin/../etc/passwd", "other", ""},  // …and scans collapse
		{"/v1/jobs/not-a-job-id", "other", ""}, // bad IDs don't mint series
	}
	for _, c := range cases {
		route, job := NormalizePath(c.in)
		wantRoute := c.route
		if c.in == "/" {
			wantRoute = "other"
		}
		if route != wantRoute || job != c.job {
			t.Errorf("NormalizePath(%q) = (%q, %q), want (%q, %q)", c.in, route, job, wantRoute, c.job)
		}
	}
	if IsJobID(strings.Repeat("AB", 16)) {
		t.Errorf("uppercase hex accepted as job ID")
	}
	if !IsJobID(strings.Repeat("0f", 16)) {
		t.Errorf("valid job ID rejected")
	}
}

// TestLogRequests exercises the middleware end to end: metrics series
// with normalized routes, job-ID tagging on the log line, and DEBUG
// demotion of probe endpoints.
func TestLogRequests(t *testing.T) {
	var logBuf strings.Builder
	logger, err := NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	})
	srv := httptest.NewServer(LogRequests(inner, logger, reg))
	defer srv.Close()

	id := strings.Repeat("1a", 16)
	for _, p := range []string{"/healthz", "/v1/jobs/" + id, "/totally/unknown"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if got := reg.CounterVec("bd_http_requests_total", "", "method", "path", "code").
		With("GET", "/v1/jobs/{id}", "404").Value(); got != 1 {
		t.Errorf("job-route counter = %d, want 1", got)
	}
	if got := reg.CounterVec("bd_http_requests_total", "", "method", "path", "code").
		With("GET", "other", "200").Value(); got != 1 {
		t.Errorf("other-route counter = %d, want 1", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"job":"`+id+`"`) {
		t.Errorf("log lines missing job ID:\n%s", logs)
	}
	// /healthz logs at DEBUG; the INFO logger must not emit it.
	if strings.Contains(logs, "/healthz") {
		t.Errorf("healthz logged at INFO:\n%s", logs)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `bd_http_request_duration_seconds_count{method="GET",path="/healthz"} 1`) {
		t.Errorf("duration histogram missing:\n%s", b.String())
	}
}
