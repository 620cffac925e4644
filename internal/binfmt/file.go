package binfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FNV1a is the repo's one 64-bit FNV-1a hash: file-name stems, stable
// seeds, content stamps, and the Seal trailer's checksum.
func FNV1a[T ~string | ~[]byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Seal appends the checksum trailer: the FNV-1a of every preceding byte,
// as a little-endian uint64.
func Seal(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, FNV1a(b)) }

// Open verifies a Seal trailer and returns the bytes it covers.
func Open(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%d bytes cannot hold a checksum trailer", len(b))
	}
	body, trailer := b[:len(b)-8], b[len(b)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), FNV1a(body); got != want {
		return nil, fmt.Errorf("checksum mismatch (%016x, want %016x)", got, want)
	}
	return body, nil
}

// WriteFileAtomic writes path through write: into a temp file in the same
// directory, synced, given perm, then renamed over path. Readers see the
// old complete file or the new one, never a prefix, so a crashed or
// concurrent writer cannot leave a truncated file for a later load to trip
// over.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		// Sync before rename: a crash after the rename must not resurrect
		// an empty file from an unflushed page cache.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
