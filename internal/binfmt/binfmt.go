// Package binfmt is the one binary codec behind the repo's persisted
// formats: MOSTRC02 trace headers and phase sections. Each format describes its layout once, as a walk over its
// fields with a Codec; the same walk encodes (the Codec appends each
// field) and decodes (the Codec fills each field), so an encoder and
// decoder cannot drift apart.
//
// The rules every format gets from here:
//   - integers are fixed-width little-endian;
//   - every length is checked against a bound before anything is
//     allocated, on decode and on encode alike, so the encoder never
//     writes what the decoder would reject;
//   - the first error is sticky: later field walks are no-ops, and the
//     walk's caller reads Err once at the end;
//   - files are written through WriteFileAtomic.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Codec walks a format's fields in one direction: an encoder appends each
// field to a buffer, a decoder reads each field from a stream into the
// value it points at. In encode mode a walk only reads the value.
type Codec struct {
	dec     bool
	buf     []byte
	r       io.Reader
	n       int64
	err     error
	scratch [8]byte
}

// NewEncoder returns an encoding Codec.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a decoding Codec that reads from r. Callers that read
// field by field from a file should pass a buffered reader.
func NewDecoder(r io.Reader) *Codec { return &Codec{dec: true, r: r} }

// Decoding reports whether the Codec reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first error the walk hit.
func (c *Codec) Err() error { return c.err }

// Bytes returns the encoded bytes.
func (c *Codec) Bytes() []byte { return c.buf }

// N returns the number of bytes encoded or consumed so far.
func (c *Codec) N() int64 { return c.n }

// Failf records a formatted error unless an earlier error is already
// recorded.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Raw walks len(p) bytes verbatim: the encoder appends p, the decoder
// fills p.
func (c *Codec) Raw(p []byte) {
	if c.err != nil {
		return
	}
	if !c.dec {
		c.buf = append(c.buf, p...)
		c.n += int64(len(p))
		return
	}
	n, err := io.ReadFull(c.r, p)
	if err != nil {
		c.err = fmt.Errorf("short read at byte %d: %w", c.n+int64(n), err)
	}
	c.n += int64(n)
}

// Tag walks a fixed byte string such as a magic or a version byte: the
// encoder writes want, the decoder fails unless the stream holds want.
func (c *Codec) Tag(want []byte, what string) {
	got := want
	if c.dec {
		got = make([]byte, len(want))
	}
	c.Raw(got)
	if c.dec && c.err == nil && string(got) != string(want) {
		c.err = fmt.Errorf("bad %s %q (want %q)", what, got, want)
	}
}

// word walks the low width bytes of *v.
func (c *Codec) word(v *uint64, width int) {
	b := c.scratch[:width]
	if !c.dec {
		binary.LittleEndian.PutUint64(c.scratch[:], *v)
	}
	c.Raw(b)
	if c.dec && c.err == nil {
		var full [8]byte
		copy(full[:], b)
		*v = binary.LittleEndian.Uint64(full[:])
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(v *uint64) { c.word(v, 8) }

// Len16 walks a uint16 length prefix: the encoder writes n, the decoder
// reads it. Either side fails when the length exceeds bound, so the caller
// may allocate the returned length. It returns 0 after an error.
func (c *Codec) Len16(n, bound int, what string) int {
	w := uint64(n)
	if !c.dec && n > bound {
		c.Failf("%s length %d exceeds the bound %d", what, n, bound)
	}
	c.word(&w, 2)
	if c.dec && c.err == nil && w > uint64(bound) {
		c.Failf("implausible %s length %d (bound %d)", what, w, bound)
	}
	if c.err != nil {
		return 0
	}
	return int(w)
}

// Str walks a string behind a uint16 length prefix of at most bound bytes.
func (c *Codec) Str(s *string, bound int) {
	n := c.Len16(len(*s), bound, "string")
	if c.err != nil {
		return
	}
	if !c.dec {
		c.buf = append(c.buf, *s...)
		c.n += int64(n)
		return
	}
	b := make([]byte, n)
	c.Raw(b)
	*s = string(b)
}

// Slice walks n elements of *s with elem, where n was walked (and so
// bounded) by Len16. The decoder sizes *s to n, leaving it nil when n
// is 0; the encoder fails unless len(*s) == n.
func Slice[T any](c *Codec, s *[]T, n int, elem func(*T)) {
	if c.err != nil {
		return
	}
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	} else if len(*s) != n {
		c.Failf("%d elements behind a length of %d", len(*s), n)
		return
	}
	for i := range *s {
		elem(&(*s)[i])
		if c.err != nil {
			return
		}
	}
}
