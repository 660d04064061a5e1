// Package client is the Go client for the bdservd/bdcoord HTTP API: job
// submission, status polling, NDJSON event streaming, result fetch and
// the shard-unit cell runs a coordinator drives its workers with.
// It is shared by the bdcoord coordinator (which drives bdservd workers
// through it), the bdservd-backed report mode, and examples/service.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/obs"
	"repro/internal/service"
)

// Client talks to one daemon. The zero HTTPClient uses a default with no
// overall request timeout — event streams are long-lived — but sane
// transport-level limits come from http.DefaultTransport.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8356".
	BaseURL string
	// HTTPClient overrides the transport (nil = a shared default).
	HTTPClient *http.Client
}

// New returns a client for the daemon at base (trailing slash trimmed).
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes the daemon's {"error": ...} body.
func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

// do sends one request, JSON-encoding body when it is non-nil, and
// returns the response of a 2xx answer; the caller closes its body. Any
// other answer is closed here and returned as the daemon's error.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// send is do for requests whose answer carries nothing: the body is
// drained so the connection can be reused.
func (c *Client) send(ctx context.Context, method, path string, body any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks the daemon's /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	var st struct {
		Status string `json:"status"`
	}
	if err := c.getJSON(ctx, "/healthz", &st); err != nil {
		return fmt.Errorf("client: %s unhealthy: %w", c.BaseURL, err)
	}
	return nil
}

// Status fetches the daemon's GET /v1/status operational snapshot. A
// coordinator's response carries a fleet view beyond this base snapshot;
// callers that need it (bdtop) decode the raw payload themselves.
func (c *Client) Status(ctx context.Context) (service.StatusSnapshot, error) {
	var st service.StatusSnapshot
	if err := c.getJSON(ctx, "/v1/status", &st); err != nil {
		return service.StatusSnapshot{}, fmt.Errorf("client: status %s: %w", c.BaseURL, err)
	}
	return st, nil
}

// Submit posts a JobRequest and returns the accepted job status.
func (c *Client) Submit(ctx context.Context, jr service.JobRequest) (service.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", jr)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("client: submit: %w", err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}

// SubmitSpec posts a full JobSpec (the {"spec": …} request form).
func (c *Client) SubmitSpec(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	return c.Submit(ctx, service.JobRequest{Spec: &spec})
}

// Cells runs one shard unit on the daemon (POST /v1/cells) and returns
// the stream's final result line; fn sees every line before it —
// progress and heartbeats — as it arrives. The stream is decoded value
// by value, so the final line may be of any size. A non-2xx answer, a
// worker error line or a stream that ends before its result is an error.
func (c *Client) Cells(ctx context.Context, req service.CellsRequest, fn func(service.CellsLine)) (service.CellsLine, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/cells", req)
	if err != nil {
		return service.CellsLine{}, fmt.Errorf("client: cells: %w", err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ln service.CellsLine
		if err := dec.Decode(&ln); err != nil {
			return service.CellsLine{}, fmt.Errorf("client: cells: stream ended before the result: %w", err)
		}
		switch ln.Type {
		case "result":
			return ln, nil
		case "error":
			return service.CellsLine{}, fmt.Errorf("client: cells: worker: %s", ln.Error)
		}
		fn(ln)
	}
}

// Trace fetches a job's trace export (the canonical JSON form of
// GET /v1/jobs/{id}/trace).
func (c *Client) Trace(ctx context.Context, id string) (obs.TraceExport, error) {
	var export obs.TraceExport
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"/trace", &export); err != nil {
		return obs.TraceExport{}, fmt.Errorf("client: trace %s: %w", id, err)
	}
	return export, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return service.JobStatus{}, fmt.Errorf("client: job %s: %w", id, err)
	}
	return st, nil
}

// Result fetches a completed job's canonical result bytes.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("client: result %s: %w", id, err)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	if err := c.send(ctx, http.MethodDelete, "/v1/jobs/"+id, nil); err != nil {
		return fmt.Errorf("client: cancel %s: %w", id, err)
	}
	return nil
}

// WorkerRegistration is the body of a coordinator's POST /v1/workers: a
// worker announcing (or heartbeat-renewing) its fleet membership.
type WorkerRegistration struct {
	// URL is the worker's own base URL, as the coordinator should dial it.
	URL string `json:"url"`
	// TTLSeconds is the requested lease length; 0 takes the coordinator's
	// default. The worker must re-register within the TTL or be swept
	// from the fleet.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// RegisterWorker registers workerURL with the coordinator at c.BaseURL
// under a heartbeat lease (ttlSeconds 0 = coordinator default). Calling
// it again before the lease expires renews it — this is the heartbeat.
func (c *Client) RegisterWorker(ctx context.Context, workerURL string, ttlSeconds float64) error {
	if err := c.send(ctx, http.MethodPost, "/v1/workers", WorkerRegistration{URL: workerURL, TTLSeconds: ttlSeconds}); err != nil {
		return fmt.Errorf("client: register worker: %w", err)
	}
	return nil
}

// DeregisterWorker releases workerURL's lease on the coordinator at
// c.BaseURL — the orderly-leave half of registration, called by a worker
// shutting down.
func (c *Client) DeregisterWorker(ctx context.Context, workerURL string) error {
	if err := c.send(ctx, http.MethodDelete, "/v1/workers?url="+url.QueryEscape(workerURL), nil); err != nil {
		return fmt.Errorf("client: deregister worker: %w", err)
	}
	return nil
}

// Events streams a job's NDJSON progress events, invoking fn for each.
// The stream replays from the first event and ends at the job's terminal
// event; fn returning an error stops the stream and returns that error.
// A connection drop before a terminal event is an error.
func (c *Client) Events(ctx context.Context, id string, fn func(service.Event) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("client: events %s: %w", id, err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return fmt.Errorf("client: events %s: stream ended before a terminal event", id)
		} else if err != nil {
			return fmt.Errorf("client: events %s: %w", id, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == "done" || ev.Type == "error" || (ev.Type == "state" && ev.State == service.StateCanceled) {
			return nil
		}
	}
}

// WaitDone follows an existing job's event stream to completion and
// returns the final status. onEvent (optional) observes each event as it
// arrives.
func (c *Client) WaitDone(ctx context.Context, id string, onEvent func(service.Event)) (service.JobStatus, error) {
	err := c.Events(ctx, id, func(ev service.Event) error {
		if onEvent != nil {
			onEvent(ev)
		}
		return nil
	})
	if err != nil {
		return service.JobStatus{}, err
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}
