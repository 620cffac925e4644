package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"mosaic/internal/binfmt"
)

// Binary trace formats: generating a workload costs graph construction and
// kernel execution, so traces are worth persisting between sessions (the
// same practice as shipping SPEC traces to simulator users). Two wire
// formats exist (see docs/trace-format.md for the full specification):
//
// MOSTRC01 — the flat row format:
//
//	magic   [8]byte  "MOSTRC01"
//	nameLen uint16   workload name length
//	name    []byte
//	count   uint64   number of accesses
//	records count × { va uint64, gap uint32, flags uint8 }
//
// MOSTRC02 — the block-columnar format. Accesses are grouped into blocks
// of up to v02BlockCap; within a block the columns are encoded separately
// (delta+zigzag varint VAs, varint gaps, 2-bit packed flags), which
// shrinks the bundled workload traces by half or more:
//
//	magic   [8]byte  "MOSTRC02"
//	nameLen uint16
//	name    []byte
//	count   uint64   total accesses across all blocks
//	blocks  until count accesses are consumed:
//	  n          uint32  accesses in this block (1..v02BlockCap)
//	  payloadLen uint32  bytes of encoded columns that follow
//	  payload:
//	    uvarint(va[0]), then n-1 × zigzag-uvarint(va[i]-va[i-1])
//	    n × uvarint(gap[i])
//	    ceil(n/4) flag bytes: access j → byte j/4, bits (j%4)*2
//	                          (bit0 = write, bit1 = dependent)
//
// A multi-phase v02 trace appends one optional trailing section after the
// last block (absent entirely for phase-less traces, so pre-phase readers'
// files round-trip unchanged and pre-phase files decode with Phases() nil —
// the single implicit phase):
//
//	marker [4]byte "MPH1"
//	pcount uint16  number of phases (1..maxPhases)
//	phases pcount × { nameLen uint16, name []byte, lo uint64, hi uint64 }
//
// The decoded phases must form a contiguous ascending partition of
// [0, count); anything else — including a truncated section or an unknown
// marker where the section would start — is a hard decode error, never a
// silent fallback to phase-less.
//
// flags: bit0 = write, bit1 = dependent. All fixed-width integers are
// little-endian. Readers accept both formats (dispatch on magic); writers
// emit v02 unless WriteToV01 is called explicitly (v01 cannot carry
// phases). The header and the phase section are internal/binfmt field
// walks; the block columns are encoded by hand.

var (
	traceMagicV01 = [8]byte{'M', 'O', 'S', 'T', 'R', 'C', '0', '1'}
	traceMagicV02 = [8]byte{'M', 'O', 'S', 'T', 'R', 'C', '0', '2'}
	// phaseMarker opens the optional trailing phase section of a v02 file.
	phaseMarker = [4]byte{'M', 'P', 'H', '1'}
)

const (
	flagWrite = 1 << 0
	flagDep   = 1 << 1

	// v01RecordBytes is the fixed size of one MOSTRC01 record.
	v01RecordBytes = 8 + 4 + 1
	// v02BlockCap bounds accesses per MOSTRC02 block; 4096 keeps a block's
	// decoded columns (~50KB) inside the L2 cache of every modelled core.
	v02BlockCap = 4096
	// maxAccesses is a sanity bound on header counts, not a design limit.
	maxAccesses = 1 << 28
	// maxNameLen bounds the workload-name field.
	maxNameLen = 1<<16 - 1
)

// v02MaxPayload bounds a block's payload length: worst-case varints for
// every column plus the flag bytes.
func v02MaxPayload(n int) int {
	return n*(binary.MaxVarintLen64+binary.MaxVarintLen32) + (n+3)/4
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// header is the magic/name/count prefix both formats share.
type header struct {
	magic [8]byte
	name  string
	count uint64
}

// walk is the header layout: WriteTo, WriteToV01, and ReadFrom all run it.
func (h *header) walk(c *binfmt.Codec) {
	c.Raw(h.magic[:])
	if h.magic != traceMagicV01 && h.magic != traceMagicV02 {
		c.Failf("bad magic %q", h.magic[:])
	}
	c.Str(&h.name, maxNameLen)
	c.U64(&h.count)
	if h.count > maxAccesses {
		c.Failf("implausible access count %d", h.count)
	}
}

// walkPhases walks the trailing MPH1 phase section.
func walkPhases(c *binfmt.Codec, phases *[]Phase) {
	c.Tag(phaseMarker[:], "phase-section marker")
	n := c.Len16(len(*phases), maxPhases, "phase count")
	if c.Err() == nil && n == 0 {
		c.Failf("implausible phase count 0")
	}
	binfmt.Slice(c, phases, n, func(p *Phase) {
		c.Str(&p.Name, maxNameLen)
		lo, hi := uint64(p.Lo), uint64(p.Hi)
		c.U64(&lo)
		c.U64(&hi)
		if lo > maxAccesses || hi > maxAccesses {
			c.Failf("implausible phase bounds [%d, %d)", lo, hi)
		}
		if c.Decoding() {
			p.Lo, p.Hi = int(lo), int(hi)
		}
	})
}

// writeWalk encodes one field walk to w.
func writeWalk(w io.Writer, walk func(*binfmt.Codec)) (int64, error) {
	c := binfmt.NewEncoder()
	walk(c)
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	n, err := w.Write(c.Bytes())
	return int64(n), err
}

// WriteTo serializes the trace in the MOSTRC02 block-columnar format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	h := header{magic: traceMagicV02, name: t.Name, count: uint64(t.cols.Len())}
	written, err := writeWalk(bw, h.walk)
	if err != nil {
		return written, err
	}

	var head [8]byte
	payload := make([]byte, 0, v02MaxPayload(v02BlockCap))
	cols := &t.cols
	for lo := 0; lo < cols.Len(); lo += v02BlockCap {
		hi := min(lo+v02BlockCap, cols.Len())
		payload = payload[:0]
		// VA column: absolute first, then zigzag deltas.
		payload = binary.AppendUvarint(payload, cols.va[lo])
		for i := lo + 1; i < hi; i++ {
			payload = binary.AppendUvarint(payload, zigzag(int64(cols.va[i])-int64(cols.va[i-1])))
		}
		// Gap column.
		for i := lo; i < hi; i++ {
			payload = binary.AppendUvarint(payload, uint64(cols.gap[i]))
		}
		// Flag column: 2 bits per access.
		var fb byte
		for i := lo; i < hi; i++ {
			j := i - lo
			if cols.Write(i) {
				fb |= flagWrite << ((j % 4) * 2)
			}
			if cols.Dep(i) {
				fb |= flagDep << ((j % 4) * 2)
			}
			if j%4 == 3 {
				payload = append(payload, fb)
				fb = 0
			}
		}
		if (hi-lo)%4 != 0 {
			payload = append(payload, fb)
		}
		binary.LittleEndian.PutUint32(head[0:4], uint32(hi-lo))
		binary.LittleEndian.PutUint32(head[4:8], uint32(len(payload)))
		if _, err := bw.Write(head[:]); err != nil {
			return written, err
		}
		written += 8
		if _, err := bw.Write(payload); err != nil {
			return written, err
		}
		written += int64(len(payload))
	}
	if len(t.phases) > 0 {
		n, err := writeWalk(bw, func(c *binfmt.Codec) { walkPhases(c, &t.phases) })
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// WriteToV01 serializes the trace in the legacy MOSTRC01 row format.
func (t *Trace) WriteToV01(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	h := header{magic: traceMagicV01, name: t.Name, count: uint64(t.cols.Len())}
	written, err := writeWalk(bw, h.walk)
	if err != nil {
		return written, err
	}
	// One buffered manual encoder instead of three reflective binary.Write
	// calls per record: the records are packed into a scratch buffer in
	// 13-byte strides and flushed in chunks.
	const chunk = 4096
	buf := make([]byte, 0, chunk*v01RecordBytes)
	cols := &t.cols
	for i := 0; i < cols.Len(); i++ {
		var flags uint8
		if cols.Write(i) {
			flags |= flagWrite
		}
		if cols.Dep(i) {
			flags |= flagDep
		}
		buf = binary.LittleEndian.AppendUint64(buf, cols.va[i])
		buf = binary.LittleEndian.AppendUint32(buf, cols.gap[i])
		buf = append(buf, flags)
		if len(buf) >= chunk*v01RecordBytes {
			if _, err := bw.Write(buf); err != nil {
				return written, err
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return written, err
	}
	written += int64(len(buf))
	return written, bw.Flush()
}

// ReadFrom deserializes a trace written by WriteTo or WriteToV01 (dispatch
// on the magic), replacing the receiver's contents. The reader's size is
// unknown, so the columns grow incrementally rather than trusting the
// header's count: a forged count must not trigger a giant up-front
// allocation.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	return t.readFrom(r, -1)
}

// readFrom is ReadFrom on a stream of size bytes, or of unknown size when
// size < 0. A known size bounds the header's count: every encoded access
// takes at least two bytes (a v02 access has a VA and a gap varint, a v01
// record is 13 bytes), so the columns are reserved for min(count, size/2)
// accesses up front and a forged count can reserve no more than the file
// could hold.
func (t *Trace) readFrom(r io.Reader, size int64) (int64, error) {
	reserve, bufSize := uint64(1<<16), int64(1<<20)
	if size >= 0 {
		reserve, bufSize = uint64(size/2), min(size, bufSize)
	}
	br := bufio.NewReaderSize(r, int(bufSize))
	c := binfmt.NewDecoder(br)
	var h header
	h.walk(c)
	if err := c.Err(); err != nil {
		return c.N(), fmt.Errorf("trace: %w", err)
	}

	var cols Columns
	cols.Grow(int(min(h.count, reserve)))
	var err error
	var phases []Phase
	if h.magic == traceMagicV02 {
		err = readV02(c, &cols, h.count)
		// A clean EOF right after the last access block means a phase-less
		// trace; any bytes present must be a complete, valid phase section.
		if _, peekErr := br.Peek(1); err == nil && peekErr != io.EOF {
			walkPhases(c, &phases)
			if err = c.Err(); err == nil {
				err = validatePhases(phases, cols.Len())
			}
		}
	} else {
		err = readV01(c, &cols, h.count)
	}
	if err != nil {
		return c.N(), fmt.Errorf("trace: %w", err)
	}
	t.Name = h.name
	t.cols = cols
	t.phases = phases
	return c.N(), nil
}

// readV01 decodes the fixed-width record stream with one buffered manual
// decoder instead of three reflective binary.Read calls per record,
// straight into the columns.
func readV01(c *binfmt.Codec, cols *Columns, count uint64) error {
	const chunk = 4096
	buf := make([]byte, chunk*v01RecordBytes)
	for done := uint64(0); done < count; {
		n := min(uint64(chunk), count-done)
		b := buf[:n*v01RecordBytes]
		if c.Raw(b); c.Err() != nil {
			return fmt.Errorf("truncated at access %d: %w", done, c.Err())
		}
		lo := cols.Len()
		vas, gaps := cols.extend(int(n))
		for i := range vas {
			rec := b[i*v01RecordBytes:]
			vas[i] = binary.LittleEndian.Uint64(rec[0:8])
			gaps[i] = binary.LittleEndian.Uint32(rec[8:12])
			cols.setFlags(lo+i, rec[12])
		}
		done += n
	}
	return nil
}

// readV02 decodes the block-columnar stream.
func readV02(c *binfmt.Codec, cols *Columns, count uint64) error {
	var head [8]byte
	payload := make([]byte, 0, v02MaxPayload(v02BlockCap))
	for done := uint64(0); done < count; {
		if c.Raw(head[:]); c.Err() != nil {
			return fmt.Errorf("truncated block header at access %d: %w", done, c.Err())
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		payloadLen := binary.LittleEndian.Uint32(head[4:8])
		if n == 0 || n > v02BlockCap || uint64(n) > count-done {
			return fmt.Errorf("forged block size %d (%d of %d accesses consumed)", n, done, count)
		}
		if int(payloadLen) > v02MaxPayload(int(n)) {
			return fmt.Errorf("forged block payload length %d for %d accesses", payloadLen, n)
		}
		payload = payload[:payloadLen]
		if c.Raw(payload); c.Err() != nil {
			return fmt.Errorf("truncated block at access %d: %w", done, c.Err())
		}
		if err := decodeBlock(payload, cols, int(n)); err != nil {
			return fmt.Errorf("block at access %d: %w", done, err)
		}
		done += uint64(n)
	}
	return nil
}

// decodeBlock appends one block's n accesses from its encoded payload,
// decoding each column straight into the trace's columns. A block that
// fails to decode leaves garbage behind, which is harmless: the whole
// read then fails and its columns are dropped.
func decodeBlock(payload []byte, cols *Columns, n int) error {
	pos := 0
	varint := func() (uint64, bool) {
		v, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return 0, false
		}
		pos += w
		return v, true
	}
	lo := cols.Len()
	vas, gaps := cols.extend(n)
	va, ok := varint()
	if !ok {
		return fmt.Errorf("bad first VA varint")
	}
	vas[0] = va
	for i := 1; i < n; i++ {
		d, ok := varint()
		if !ok {
			return fmt.Errorf("bad VA delta varint (access %d)", i)
		}
		va = uint64(int64(va) + unzigzag(d))
		vas[i] = va
	}
	for i := 0; i < n; i++ {
		g, ok := varint()
		if !ok || g > 1<<32-1 {
			return fmt.Errorf("bad gap varint (access %d)", i)
		}
		gaps[i] = uint32(g)
	}
	flagBytes := (n + 3) / 4
	if len(payload)-pos != flagBytes {
		return fmt.Errorf("flag section is %d bytes, want %d", len(payload)-pos, flagBytes)
	}
	flags := payload[pos:]
	for i := 0; i < n; i++ {
		cols.setFlags(lo+i, flags[i/4]>>((i%4)*2))
	}
	return nil
}

// Save writes the trace to a file (in the current default format) through
// binfmt.WriteFileAtomic, so an interrupted run never leaves a truncated
// MOSTRC02 file behind to poison a trace cache.
func (t *Trace) Save(path string) error {
	return binfmt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	})
}

// Load reads a trace from a file written by Save (either format). The
// file's size bounds the header's access count, so the columns are
// reserved once and decoded into in place.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var t Trace
	if _, err := t.readFrom(f, fi.Size()); err != nil {
		return nil, fmt.Errorf("trace: loading %s: %w", path, err)
	}
	return &t, nil
}
