package chaostest

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// runChaoticTraced is runChaotic with an explicit trace configuration,
// returning the coordinator's trace export alongside the merged result.
func runChaoticTraced(t *testing.T, spec service.JobSpec, proxies []*Proxy, unitsPerWorker, traceBuffer int) (string, []byte, obs.TraceExport, bool) {
	t.Helper()
	urls := make([]string, len(proxies))
	for i, p := range proxies {
		urls[i] = p.URL()
	}
	exec, err := shard.New(chaosExecConfig(urls, unitsPerWorker))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	coord, err := service.New(service.Config{
		Workers:      2,
		Execute:      exec.Execute,
		TraceBuffer:  traceBuffer,
		TraceService: "bdcoord",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("traced chaotic job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("traced chaotic job has no result bytes")
	}
	export, traced := coord.Trace(st.ID)
	return fin.ResultHash, data, export, traced
}

// traceKillScript is the mid-stream worker-kill fault plan both trace
// variants run under: an early stream cut plus a network crash that
// heals — enough chaos to force re-queues and retries into the trace.
func traceKillScript() Script {
	return Script{
		StreamFaults:       []StreamFault{{CutAfterLines: 1}},
		CrashAfterRequests: 2,
		RestartAfter:       300 * time.Millisecond,
	}
}

// TestChaosTraceDeterminismAndAttempts pins the two tracing properties
// under a mid-stream worker kill:
//
// (a) tracing is strictly observational — with the recorder enabled or
// disabled, the merged bytes are identical to the single-daemon golden
// run;
//
// (b) the trace agrees with the coordinator's unit bookkeeping — every
// unit has a unit-done instant, and exactly one exec span carries the
// winning attempt number (charged failures + 1), with status ok.
func TestChaosTraceDeterminismAndAttempts(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)

	crashy := newProxy(t, startWorker(t).url, traceKillScript())
	steady := newProxy(t, startWorker(t).url, Script{})
	tracedHash, tracedBytes, export, traced := runChaoticTraced(t, spec, []*Proxy{crashy, steady}, 4, 4096)
	assertIdentical(t, "tracing enabled", wantHash, wantBytes, tracedHash, tracedBytes)
	if !traced {
		t.Fatal("tracing enabled but no trace exported")
	}

	crashy2 := newProxy(t, startWorker(t).url, traceKillScript())
	steady2 := newProxy(t, startWorker(t).url, Script{})
	offHash, offBytes, _, offTraced := runChaoticTraced(t, spec, []*Proxy{crashy2, steady2}, 4, -1)
	assertIdentical(t, "tracing disabled", wantHash, wantBytes, offHash, offBytes)
	if offTraced {
		t.Error("tracing disabled but a trace was exported")
	}

	// (b) cross-check the exec spans against the queue's attempt
	// accounting carried by the unit-done instants.
	attempts := map[int]int{}     // unit → charged (failed) attempts
	execByKey := map[string]int{} // "unit/attempt" → count of exec spans
	execOK := map[string]bool{}   // "unit/attempt" → some exec span ended ok
	units := -1
	for _, sp := range export.Spans {
		switch sp.Name {
		case "plan":
			if n, err := strconv.Atoi(sp.Attrs["units"]); err == nil {
				units = n
			}
		case "unit-done":
			u, err := strconv.Atoi(sp.Attrs["unit"])
			if err != nil {
				t.Fatalf("unit-done instant with bad unit attr: %+v", sp.Attrs)
			}
			if _, dup := attempts[u]; dup {
				t.Errorf("unit %d has more than one unit-done instant", u)
			}
			n, err := strconv.Atoi(sp.Attrs["attempts"])
			if err != nil {
				t.Fatalf("unit-done instant with bad attempts attr: %+v", sp.Attrs)
			}
			attempts[u] = n
		case "exec":
			if sp.Service != "bdcoord" {
				continue // a worker's imported spans never include exec
			}
			key := sp.Attrs["unit"] + "/" + sp.Attrs["attempt"]
			execByKey[key]++
			if sp.Attrs["status"] == "ok" {
				execOK[key] = true
			}
		}
	}
	if units < 1 {
		t.Fatalf("trace has no plan span with a units attribute (spans: %d)", len(export.Spans))
	}
	if len(attempts) != units {
		t.Fatalf("trace has unit-done instants for %d of %d units", len(attempts), units)
	}
	for u, n := range attempts {
		key := strconv.Itoa(u) + "/" + strconv.Itoa(n+1)
		if execByKey[key] != 1 {
			t.Errorf("unit %d: %d exec span(s) at winning attempt %d, want exactly 1", u, execByKey[key], n+1)
		}
		if !execOK[key] {
			t.Errorf("unit %d: winning exec span (attempt %d) did not end ok", u, n+1)
		}
	}

	// The chaos fleet's worker spans joined the trace: at least one
	// imported span tagged with a worker URL, proving the inline spans of
	// the unit results survive the fault script.
	imported := 0
	for _, sp := range export.Spans {
		if sp.Worker != "" && sp.Service != "bdcoord" {
			imported++
		}
	}
	if imported == 0 {
		t.Error("no worker spans were imported into the coordinator trace")
	}
}
