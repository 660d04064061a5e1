package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsio"
)

// unitStore is the coordinator's on-disk store for per-unit observation
// results, keyed by the unit's content-addressed sub-spec ID. It is
// the byte-level half of crash recovery: the journal's unit_done records
// name which units finished and under which key, and this store holds
// the canonical bytes a restarted coordinator re-adopts instead of
// re-dispatching the unit. Entries are deleted once their job merges —
// the merged result supersedes them — so the store stays bounded by the
// in-flight unit working set.
type unitStore struct {
	dir string
}

func newUnitStore(dir string) (*unitStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating unit store: %w", err)
	}
	return &unitStore{dir: dir}, nil
}

// validUnitKey mirrors the service job-ID shape (32 lowercase hex
// digits). Keys come from journal records that may be torn or tampered,
// and they become file names — anything else must never reach the
// filesystem.
func validUnitKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

func (s *unitStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// put writes one unit's canonical result bytes atomically (unique
// tmp+fsync+rename), so a crash mid-write can never leave a half-record
// behind a key the journal claims is done: the caller journals unit_done
// only after put returns, and put returns only after the bytes are
// durable.
func (s *unitStore) put(key string, data []byte) error {
	if !validUnitKey(key) {
		return fmt.Errorf("shard: invalid unit store key %q", key)
	}
	if err := fsio.WriteFileSync(s.path(key), data, 0o644); err != nil {
		return fmt.Errorf("shard: writing unit result: %w", err)
	}
	return nil
}

// get returns a stored unit's bytes, if present and addressable.
func (s *unitStore) get(key string) ([]byte, bool) {
	if !validUnitKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// remove deletes a stored unit (no-op if absent).
func (s *unitStore) remove(key string) {
	if !validUnitKey(key) {
		return
	}
	os.Remove(s.path(key))
}
