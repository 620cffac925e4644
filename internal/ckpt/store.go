package ckpt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mosaic/internal/binfmt"
)

// Store is an on-disk checkpoint cache, one MOSCKPT01 file per (key,
// position) pair. Keys encode everything the state depends on — trace
// identity, platform, layout, engine kind, fidelity, sampling plan — and
// the stored key and position are verified on load, so a hash collision or
// a stale file can never smuggle the wrong state into a replay. A Store is
// safe for concurrent use: writes are atomic (temp + rename, the trace
// cache's discipline) and reads only ever see complete files.
type Store struct {
	Dir string
}

// Path returns the file path a (key, position) checkpoint lives at.
func (st *Store) Path(key string, pos int) string {
	return filepath.Join(st.Dir, fmt.Sprintf("%016x-%d.mosckpt", binfmt.FNV1a(key), pos))
}

// Save writes the state for (key, pos) atomically: a temp file in the
// store directory, synced, then renamed into place, so a crashed or
// concurrent writer never leaves a truncated checkpoint for a later load
// to trip over — readers see the old complete file or the new one, never
// a prefix.
func (st *Store) Save(key string, pos int, s *MachineState) error {
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return err
	}
	return binfmt.WriteFileAtomic(st.Path(key, pos), 0o644, func(w io.Writer) error {
		_, err := s.Encode(w, key, pos)
		return err
	})
}

// Load reads the state for (key, pos). A missing file returns (nil, nil) —
// a cache miss, not an error. A present-but-unusable file (truncated by a
// crashed pre-atomic-write tool, wrong version, key hash collision, stale
// position) returns an error; callers treat it as a miss and regenerate,
// mirroring the trace cache's partial-file recovery.
func (st *Store) Load(key string, pos int) (*MachineState, error) {
	f, err := os.Open(st.Path(key, pos))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	gotKey, gotPos, s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("ckpt: loading %s: %w", st.Path(key, pos), err)
	}
	if gotKey != key {
		return nil, fmt.Errorf("ckpt: %s holds key %q, want %q (hash collision?)", st.Path(key, pos), gotKey, key)
	}
	if gotPos != pos {
		return nil, fmt.Errorf("ckpt: %s holds position %d, want %d", st.Path(key, pos), gotPos, pos)
	}
	return s, nil
}
