package chaostest

// Coordinator crash-recovery chaos tests: the coordinator itself — not a
// worker — is killed mid-job and restarted over its journal + unit
// store, while the worker fleet churns (a fresh worker joins, a seeded
// one leaves). The acceptance property is twofold: the merged result
// stays byte-identical to the single-daemon golden run, and the
// restarted coordinator re-sends exactly the units it had NOT journaled
// as done — proven by counting the unit requests the workers accepted
// through the chaos proxies.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// journalView is the unit-level progress a journal records for one job,
// parsed with the same semantics as the daemon's replay: a plan record
// with a different part count voids earlier unit_done records, and a
// terminal record clears them all.
type journalView struct {
	parts    int
	done     map[int]string // unit index → sub-result store key
	terminal bool
}

// parseJournal reads the journal NDJSON and reduces jobID's records to a
// journalView. A torn tail (partial last line) stops the scan, exactly
// like replay.
func parseJournal(t *testing.T, path, jobID string) journalView {
	t.Helper()
	v := journalView{done: map[int]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec struct {
			Type  string `json:"type"`
			ID    string `json:"id"`
			Parts int    `json:"parts"`
			Unit  *int   `json:"unit"`
			Key   string `json:"key"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil {
			break // torn tail
		}
		if rec.ID != jobID {
			continue
		}
		switch rec.Type {
		case "plan":
			if rec.Parts > 0 && rec.Parts != v.parts {
				v.parts, v.done = rec.Parts, map[int]string{}
			}
		case "unit_done":
			if rec.Unit != nil && rec.Key != "" {
				v.done[*rec.Unit] = rec.Key
			}
		case "done", "fail", "cancel":
			v.terminal = true
			v.parts, v.done = 0, map[int]string{}
		}
	}
	return v
}

// startWorkerThrottled is startWorker with an artificial per-cell delay,
// slow enough that a coordinator killed after the first journaled
// unit_done reliably leaves work unfinished.
func startWorkerThrottled(t *testing.T, d time.Duration) *worker {
	t.Helper()
	return startWorkerWith(t, service.Config{Workers: 2, Parallelism: 2, CellDelay: d})
}

// runWithCoordinatorCrash runs spec through a journaled coordinator that
// is killed the moment its first unit_done record lands (Close with the
// job still running journals no terminal record — the crash model), then
// restarted over the same journal and unit store. During recovery the
// fleet churns: extra (if non-nil) joins via the registration path and
// the last initial proxy's worker leaves. It asserts the restarted
// coordinator re-submits exactly the units not journaled done, and
// returns the merged hash and bytes for the caller's golden comparison.
func runWithCoordinatorCrash(t *testing.T, spec service.JobSpec, proxies []*Proxy, upw int, extra *Proxy) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.ndjson")
	urls := make([]string, len(proxies))
	for i, p := range proxies {
		urls[i] = p.URL()
	}
	mkExec := func() *shard.Executor {
		cfg := chaosExecConfig(urls, upw)
		cfg.UnitCacheDir = filepath.Join(dir, "units")
		exec, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	mkCoord := func(exec *shard.Executor) *service.Manager {
		coord, err := service.New(service.Config{
			Workers:     2,
			DataDir:     filepath.Join(dir, "data"),
			JournalPath: journal,
			Execute:     exec.Execute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// Incarnation one: submit, wait for the first journaled unit_done,
	// then die without a terminal record.
	exec1 := mkExec()
	coord1 := mkCoord(exec1)
	st, err := coord1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(parseJournal(t, journal, st.ID).done) == 0 {
		if cur, _ := coord1.Get(st.ID); cur.State == service.StateFailed {
			t.Fatalf("job failed before crash: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("no unit_done journaled within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	coord1.Close()
	exec1.Close()

	pre := parseJournal(t, journal, st.ID)
	doneKeys := map[string]bool{}
	for _, k := range pre.done {
		doneKeys[k] = true
	}
	preCounts := make([]int, len(proxies))
	for i, p := range proxies {
		preCounts[i] = len(p.SubmittedIDs())
	}

	// Incarnation two over the same journal + unit store re-adopts the
	// job at New. Churn the fleet while it recovers: extra joins, the
	// last seeded worker leaves.
	exec2 := mkExec()
	defer exec2.Close()
	coord2 := mkCoord(exec2)
	defer coord2.Close()
	if extra != nil {
		if _, err := exec2.Register(extra.URL(), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if len(proxies) > 1 {
		time.Sleep(50 * time.Millisecond)
		exec2.Deregister(urls[len(urls)-1])
	}
	fin := waitTerminal(t, coord2, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("recovered job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord2.Result(st.ID)
	if !ok {
		t.Fatal("recovered job has no result bytes")
	}

	if pre.terminal {
		// The job slipped to terminal between the last poll and Close —
		// nothing was left to recover; the golden comparison still holds.
		t.Logf("job completed before the crash landed; skipping re-submission accounting")
		return fin.ResultHash, data
	}

	// The restart must re-execute exactly the remainder: every distinct
	// unit sent after the crash (unit keys are the sub-specs' content-
	// addressed IDs, so identity survives coordinator incarnations and
	// worker moves) is
	// outside the journaled-done set, and together they cover exactly the
	// plan's complement of that set.
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	units, err := shard.Plan(norm, pre.parts)
	if err != nil {
		t.Fatal(err)
	}
	phase2 := map[string]bool{}
	for i, p := range proxies {
		for _, id := range p.SubmittedIDs()[preCounts[i]:] {
			phase2[id] = true
		}
	}
	if extra != nil {
		for _, id := range extra.SubmittedIDs() {
			phase2[id] = true
		}
	}
	for id := range phase2 {
		if doneKeys[id] {
			t.Errorf("restarted coordinator re-submitted unit %s already journaled done", id)
		}
	}
	if want := len(units) - len(pre.done); len(phase2) != want {
		t.Errorf("restart submitted %d distinct units, want %d (%d planned, %d journaled done)",
			len(phase2), want, len(units), len(pre.done))
	}
	return fin.ResultHash, data
}

// TestChaosCoordinatorCrashRecovery is the acceptance scenario: the
// coordinator is killed after its first unit_done record and restarted
// mid-job while a fresh worker joins and a seeded one leaves. The merged
// result must be byte-identical to the single-daemon golden run and only
// the units not journaled done may be re-submitted.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	p1 := newProxy(t, startWorkerThrottled(t, 40*time.Millisecond).url, Script{})
	p2 := newProxy(t, startWorkerThrottled(t, 40*time.Millisecond).url, Script{})
	extra := newProxy(t, startWorker(t).url, Script{})
	gotHash, gotBytes := runWithCoordinatorCrash(t, spec, []*Proxy{p1, p2}, 4, extra)
	assertIdentical(t, "coordinator-crash", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosElasticJoinLeave exercises pure membership churn, no crash: a
// job starts on a registry seeded only at runtime with one slow worker;
// a fast worker joins mid-job (and must steal units), then the slow
// seed deregisters with units in flight (they re-queue without an
// attempt charge). The merge must match golden.
func TestChaosElasticJoinLeave(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	slow := newProxy(t, startWorkerThrottled(t, 60*time.Millisecond).url, Script{})
	fast := newProxy(t, startWorker(t).url, Script{})

	exec, err := shard.New(chaosExecConfig(nil, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	if _, err := exec.Register(slow.URL(), time.Hour); err != nil {
		t.Fatal(err)
	}
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSubmissions(t, slow, 1, 30*time.Second)
	if _, err := exec.Register(fast.URL(), time.Hour); err != nil {
		t.Fatal(err)
	}
	waitSubmissions(t, fast, 1, 30*time.Second)
	if !exec.Deregister(slow.URL()) {
		t.Fatal("slow worker was not a member at deregistration")
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("churned job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("churned job has no result bytes")
	}
	assertIdentical(t, "elastic join/leave", wantHash, wantBytes, fin.ResultHash, data)
	if len(fast.SubmittedIDs()) == 0 {
		t.Error("late-joining worker never received a unit")
	}
}

// waitSubmissions polls until the proxy has forwarded at least n
// accepted unit submissions.
func waitSubmissions(t *testing.T, p *Proxy, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for len(p.SubmittedIDs()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("proxy saw %d submissions, want ≥%d within %v", len(p.SubmittedIDs()), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
