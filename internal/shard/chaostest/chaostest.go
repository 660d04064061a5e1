// Package chaostest is the in-process fault-injection harness for the
// shard coordinator: a reverse proxy wrapped around one bdservd worker
// that can inject request latency, cut NDJSON unit streams mid-flight,
// corrupt a unit's returned observations into wrong-shape results, and
// crash (sever the
// network, optionally swapping in a brand-new worker) and restart on a
// deterministic script. The coordinator talks to the proxy's URL exactly
// as it would to a real worker, so every injected fault exercises the
// real dispatch/retry/breaker path — and the package's property tests
// assert the work-stealing merge stays byte-identical to a single-daemon
// run under randomized grids, worker counts and fault scripts.
package chaostest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/benchio"
	"repro/internal/service"
)

// Corrupt selects how the observations of a unit's final stream record
// are mangled into a wrong-shape result.
type Corrupt string

const (
	// CorruptNone passes the body through untouched.
	CorruptNone Corrupt = ""
	// CorruptDropWorkload removes the last cell row but keeps the label
	// list — a shape the coordinator's unit validation must reject.
	CorruptDropWorkload Corrupt = "drop-workload"
	// CorruptRenameMetric rewrites the first metric name — a
	// mixed-version-fleet simulation.
	CorruptRenameMetric Corrupt = "rename-metric"
	// CorruptNodeOffset shifts the reported node offset by one — cells
	// that would land on the wrong grid columns if merged.
	CorruptNodeOffset Corrupt = "node-offset"
	// CorruptGarbage replaces the observations with non-JSON bytes.
	CorruptGarbage Corrupt = "garbage"
)

// StreamFault cuts one /v1/cells response after forwarding CutAfterLines
// NDJSON lines — a mid-stream disconnect, before the final record unless
// the stream is shorter than the cut.
type StreamFault struct {
	CutAfterLines int
}

// Script is one worker's deterministic fault plan. Fault lists are
// consumed in order by successive matching requests and then exhaust —
// a finite script eventually lets every request through clean, which is
// what makes randomized chaos runs convergent.
type Script struct {
	// Latency is added to every proxied request.
	Latency time.Duration
	// StreamFaults are consumed by successive /v1/cells requests.
	StreamFaults []StreamFault
	// ResultFaults are consumed by successive /v1/cells final records as
	// they are forwarded; each corrupts that record's observations. A
	// stream cut before its final record consumes none.
	ResultFaults []Corrupt
	// CrashAfterRequests, when positive, severs the proxy's network
	// (listener and all connections) when the Nth unit request (POST
	// /v1/cells) arrives. Health probes do not count, so the crash lands
	// on a unit whatever the probe timing.
	CrashAfterRequests int
	// RestartAfter is how long a scripted crash lasts before the proxy
	// re-listens on the same address.
	RestartAfter time.Duration
}

// Proxy is one fault-injecting worker front. Create with New, point the
// coordinator at URL(), Close when done.
type Proxy struct {
	transport http.RoundTripper

	mu        sync.Mutex
	target    string
	addr      string
	srv       *http.Server
	script    Script
	units     int // unit requests seen
	streamIdx int
	resultIdx int
	corrupted int // corrupt final records forwarded
	closed    bool
	submitted []string // spec IDs of accepted POST /v1/cells bodies

	// OnRestart, when set, is invoked before a scripted restart and
	// returns the target for the revived proxy — e.g. the URL of a
	// freshly booted worker, simulating a crash that lost all worker
	// state (cache, journal, in-flight jobs).
	OnRestart func() string
}

// New starts a proxy on a loopback port in front of target, applying
// script.
func New(target string, script Script) (*Proxy, error) {
	p := &Proxy{
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
		target:    strings.TrimRight(target, "/"),
		script:    script,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	p.serveOn(ln)
	return p, nil
}

// URL returns the proxy's base URL — what the coordinator is configured
// with in place of the real worker.
func (p *Proxy) URL() string { return "http://" + p.addr }

func (p *Proxy) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: p}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	go srv.Serve(ln)
}

// Crash severs the proxy's network presence: the listener closes and
// every active connection — including unit streams — is torn down. The
// backing worker keeps running; only the network dies, exactly like
// worker.kill in the coordinator tests but reversible via Restart.
func (p *Proxy) Crash() {
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart re-listens on the proxy's original address. The port was just
// released by Crash, so a brief bind retry rides out the race with the
// kernel.
func (p *Proxy) Restart() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("chaostest: proxy closed")
	}
	addr := p.addr
	p.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaostest: rebinding %s: %w", addr, err)
	}
	p.serveOn(ln)
	return nil
}

// SubmittedIDs returns the content-addressed service.JobSpec ID of every
// POST /v1/cells body the worker accepted through the proxy, in arrival
// order (duplicates included). A unit's spec ID is its key in the
// coordinator's journal, so recovery tests use this to assert a restarted
// coordinator never re-sends a unit it already journaled as done.
func (p *Proxy) SubmittedIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.submitted...)
}

// Corrupted returns how many corrupt final records the proxy forwarded
// in full, so tests can prove their ResultFaults reached the coordinator.
func (p *Proxy) Corrupted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.corrupted
}

// takeCorrupt consumes the next ResultFault, if any, for a final record
// about to be forwarded.
func (p *Proxy) takeCorrupt() Corrupt {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resultIdx >= len(p.script.ResultFaults) {
		return CorruptNone
	}
	p.resultIdx++
	return p.script.ResultFaults[p.resultIdx-1]
}

// SetTarget repoints the proxy at a different worker (used with
// OnRestart-style fresh-worker crash simulations).
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = strings.TrimRight(target, "/")
	p.mu.Unlock()
}

// Close shuts the proxy down for good.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// plan consumes the script state for one incoming request. ResultFaults
// are not planned here: they are taken as final records pass (takeCorrupt).
func (p *Proxy) plan(r *http.Request) (target string, latency time.Duration, cut int, crash bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	target = p.target
	latency = p.script.Latency
	cut = -1
	if r.URL.Path != "/v1/cells" {
		return
	}
	p.units++
	if p.units == p.script.CrashAfterRequests {
		crash = true
		return
	}
	if p.streamIdx < len(p.script.StreamFaults) {
		cut = p.script.StreamFaults[p.streamIdx].CutAfterLines
		p.streamIdx++
	}
	return
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	target, latency, cut, crash := p.plan(r)
	if crash {
		restart := p.script.RestartAfter
		go func() {
			p.Crash()
			time.Sleep(restart)
			if p.OnRestart != nil {
				p.SetTarget(p.OnRestart())
			}
			p.Restart() // error only after Close; nothing to do with it
		}()
		panic(http.ErrAbortHandler) // sever this connection uncleanly
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-r.Context().Done():
			return
		}
	}

	var unitID string
	body := r.Body
	if r.URL.Path == "/v1/cells" {
		// Remember the unit's spec ID, recorded once the worker accepts.
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		var req service.CellsRequest
		if json.Unmarshal(data, &req) == nil {
			unitID, _ = req.Spec.ID()
		}
		body = io.NopCloser(bytes.NewReader(data))
	}
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		http.Error(w, "chaostest: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if unitID != "" && resp.StatusCode == http.StatusOK {
		p.mu.Lock()
		p.submitted = append(p.submitted, unitID)
		p.mu.Unlock()
	}

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)

	// Forward line by line (no line-length cap: a unit's final record
	// carries its whole observation matrix), corrupting the final record
	// and cutting the stream as scripted. A cut severs the connection
	// uncleanly: the client sees activity, then a dead drop.
	rd := bufio.NewReader(resp.Body)
	for lines := 0; ; lines++ {
		if lines == cut {
			panic(http.ErrAbortHandler)
		}
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			corrupt := CorruptNone
			if bytes.HasPrefix(line, []byte(`{"type":"result"`)) {
				if corrupt = p.takeCorrupt(); corrupt != CorruptNone {
					line = corruptResult(line, corrupt)
				}
			}
			if _, werr := w.Write(line); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if corrupt != CorruptNone {
				p.mu.Lock()
				p.corrupted++
				p.mu.Unlock()
			}
		}
		if err != nil {
			return
		}
	}
}

// corruptResult mangles the observations of a unit stream's final record
// per kind. Garbage observations are not JSON, so that record goes out as
// a line the client cannot decode at all.
func corruptResult(line []byte, kind Corrupt) []byte {
	var ln service.CellsLine
	if err := json.Unmarshal(line, &ln); err != nil {
		return line
	}
	ln.Observations = corruptBody(ln.Observations, kind)
	out, err := json.Marshal(ln)
	if err != nil {
		return append(append([]byte(`{"type":"result","observations":`), ln.Observations...), "}\n"...)
	}
	return append(out, '\n')
}

// corruptBody mangles ObservationsJSON bytes per kind; bytes that fail
// to decode fall back to garbage (the point is a broken result, not a
// faithful one).
func corruptBody(body []byte, kind Corrupt) []byte {
	if kind == CorruptGarbage {
		return []byte(`{"labels": ["H-`)
	}
	var oj benchio.ObservationsJSON
	if err := json.Unmarshal(body, &oj); err != nil {
		return []byte(`{"labels": ["H-`)
	}
	switch kind {
	case CorruptDropWorkload:
		if len(oj.Cells) > 0 {
			oj.Cells = oj.Cells[:len(oj.Cells)-1]
		}
	case CorruptRenameMetric:
		if len(oj.Metrics) > 0 {
			oj.Metrics = append([]string(nil), oj.Metrics...)
			oj.Metrics[0] = oj.Metrics[0] + "-v2"
		}
	case CorruptNodeOffset:
		oj.NodeOffset++
	}
	out, err := json.Marshal(oj)
	if err != nil {
		return []byte(`{"labels": ["H-`)
	}
	return out
}
