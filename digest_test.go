package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bigdata/cluster"
	"repro/internal/service"
	"repro/internal/shard"
)

// Output bytes pinned across revisions. The digests are the SHA-256 of
// the canonical result bytes of the CI-scale spec (H-Sort, S-Sort,
// H-Grep, S-Grep; 2 nodes; 6000 instructions per core; K ≤ 3) in both
// job modes, served by a single daemon and by a coordinator over one
// worker; the cell key is that spec's first workload on node 0. A change
// that moves any of them changes what caches hold under unchanged keys,
// so it must come with new cache versions.
const (
	pinnedObservationsSHA256 = "7e0d8be719f06eadbb15406d2a03df1bdb539afe1eb0a0dc064238c209f5e597"
	pinnedAnalysisSHA256     = "70efe69c86403b9eb2e4ce17b4e4ee0502dfbd22c43b8ccdd022ac255de8dc80"
	pinnedCellKey            = "e9885d468a466a55dad200084af278403751025d5d1d3a18bd2b4c5272d7a736"
)

const bumpVersions = "output bytes moved: if intended, bump cellKeyVersion and the result-cache version, then re-pin"

func pinnedSpec(t *testing.T, mode string) service.JobSpec {
	t.Helper()
	kmax, nodes, instr := 3, 2, 6000
	spec, err := (&service.JobRequest{
		Mode:         mode,
		Workloads:    []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"},
		Nodes:        &nodes,
		Instructions: &instr,
		KMax:         &kmax,
	}).ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultDigest runs spec to completion on m and returns the SHA-256 of
// its result bytes.
func resultDigest(t *testing.T, m *service.Manager, spec service.JobSpec) string {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		st, _ = m.Get(st.ID)
	}
	data, ok := m.Result(st.ID)
	if !ok {
		t.Fatalf("job %s has no result bytes", st.ID)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestOutputDigestsPinned(t *testing.T) {
	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	worker, err := service.New(service.Config{Parallelism: 2, CharacterizeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	srv := httptest.NewServer(service.NewHandler(worker))
	defer srv.Close()
	exec, err := shard.New(shard.Config{Workers: []string{srv.URL}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	coord, err := service.New(service.Config{Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, c := range []struct{ mode, want string }{
		{"observations", pinnedObservationsSHA256},
		{"analyze", pinnedAnalysisSHA256},
	} {
		spec := pinnedSpec(t, c.mode)
		for _, m := range []struct {
			name string
			mgr  *service.Manager
		}{{"single daemon", single}, {"coordinator", coord}} {
			if got := resultDigest(t, m.mgr, spec); got != c.want {
				t.Errorf("%s %s result sha256 %s, pinned %s — %s", m.name, c.mode, got, c.want, bumpVersions)
			}
		}
	}

	spec, err := pinnedSpec(t, "observations").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	key, err := cluster.CellKey(suite[0], spec.Cluster, 0)
	if err != nil {
		t.Fatal(err)
	}
	if key != pinnedCellKey {
		t.Errorf("cell key of %s on node 0 is %s, pinned %s — %s", suite[0].Name, key, pinnedCellKey, bumpVersions)
	}
}
