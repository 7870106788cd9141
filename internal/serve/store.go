package serve

// The result store: a disk directory of canonical result files keyed by
// exp.ResultKey, layered on the same byte contract as exp.WriteResults — a
// stored (and therefore served) response is byte-identical to the file
// cmd/experiments -out writes for the same (experiment, preset, seed). The
// store survives restarts: a directory populated by a previous expd process,
// or by cmd/experiments -out itself, serves warm immediately.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exp"
)

// StoreStats is a snapshot of the result-store counters.
type StoreStats struct {
	// Hits counts Get calls served from a stored file.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that found no stored file.
	Misses uint64 `json:"misses"`
	// Puts counts results persisted.
	Puts uint64 `json:"puts"`
	// Entries is the current number of stored result files.
	Entries int `json:"entries"`
}

// Store is a disk-backed canonical-result store. All methods are safe for
// concurrent use; per-key write atomicity comes from writing to a temp file
// and renaming into place, so a concurrent Get sees either nothing or a
// complete file.
type Store struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64

	// mu serializes writers per store (Put is rare: once per cold key).
	mu sync.Mutex
}

// NewStore opens (creating if needed) the store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// path maps a ResultKey to its file, rejecting keys that would escape the
// store directory. ResultKeys are kebab-case names plus "__preset__seedN",
// so a separator or dot-segment only ever appears in a forged key.
func (s *Store) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\") || strings.Contains(key, "..") {
		return "", fmt.Errorf("serve: invalid result key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get returns the stored canonical bytes for key, or ok=false on a miss.
func (s *Store) Get(key string) (raw []byte, ok bool, err error) {
	file, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	raw, err = os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, false, nil
		}
		return nil, false, err
	}
	s.hits.Add(1)
	return raw, true, nil
}

// Put persists res under key and returns the exact stored bytes
// (exp.CanonicalJSON form). Writing is atomic per key.
func (s *Store) Put(key string, res *exp.Result) ([]byte, error) {
	file, err := s.path(key)
	if err != nil {
		return nil, err
	}
	raw, err := exp.CanonicalJSON(res)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp*")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Rename(tmp.Name(), file); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	s.puts.Add(1)
	return raw, nil
}

// Stats snapshots the store counters and current entry count.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				st.Entries++
			}
		}
	}
	return st
}
