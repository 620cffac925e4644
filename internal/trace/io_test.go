package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mosaic/internal/mem"
)

func randomTestTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("random/test", n)
	for i := 0; i < n; i++ {
		b.Compute(uint64(rng.Intn(100)))
		va := mem.Addr(rng.Uint64() % (1 << 47))
		switch rng.Intn(4) {
		case 0:
			b.Load(va)
		case 1:
			b.LoadDep(va)
		case 2:
			b.Store(va)
		default:
			b.StoreDep(va)
		}
	}
	return b.Trace()
}

func TestRoundTripBuffer(t *testing.T) {
	orig := randomTestTrace(1, 5000)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name = %q", got.Name)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("length %d vs %d", got.Len(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if got.At(i) != orig.At(i) {
			t.Fatalf("access %d: %+v vs %+v", i, got.At(i), orig.At(i))
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	orig := randomTestTrace(2, 1000)
	path := filepath.Join(t.TempDir(), "t.mostrace")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Instructions() != orig.Instructions() {
		t.Errorf("loaded %d/%d, want %d/%d", got.Len(), got.Instructions(), orig.Len(), orig.Instructions())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	var tr Trace
	if _, err := tr.ReadFrom(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("garbage should be rejected")
	}
	// Truncated valid prefix.
	orig := randomTestTrace(3, 100)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := tr.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should be rejected")
	}
	// Implausible count.
	head := append([]byte{}, buf.Bytes()[:10+len(orig.Name)]...)
	head = append(head, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if _, err := tr.ReadFrom(bytes.NewReader(head)); err == nil {
		t.Error("absurd count should be rejected")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file should fail")
	}
}

func FuzzTraceReadFrom(f *testing.F) {
	orig := randomTestTrace(4, 50)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("MOSTRC01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		// Must never panic, only return errors.
		_, _ = tr.ReadFrom(bytes.NewReader(data))
	})
}

// TestDecodeBlockNoAllocs pins the pooled-scratch property of the MOSTRC02
// decode path: with the column buffers coming from v02ScratchPool, decoding
// a block must not allocate (beyond the Columns growth amortized away here
// by pre-growing).
func TestDecodeBlockNoAllocs(t *testing.T) {
	tr := randomTestTrace(9, v02BlockCap)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	off := 8 + 2 + len(tr.Name) + 8 // magic + nameLen + name + count
	n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
	payloadLen := int(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
	payload := raw[off+8 : off+8+payloadLen]
	if n != v02BlockCap {
		t.Fatalf("first block holds %d accesses, want %d", n, v02BlockCap)
	}

	const runs = 10
	var cols Columns
	cols.Grow((runs + 2) * v02BlockCap)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := decodeBlock(payload, &cols, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decodeBlock allocates %.1f objects per block, want 0", allocs)
	}
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadAllocatesColumnsOnce: Load sizes the columns from the header's
// count (bounded by the file size) and decodes into them in place, so
// loading a long trace allocates little beyond the columns themselves
// rather than regrowing them as it decodes.
func TestLoadAllocatesColumnsOnce(t *testing.T) {
	orig := randomTestTrace(11, 1<<20)
	path := filepath.Join(t.TempDir(), "t.mostrace")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	var got *Trace
	var err error
	alloc := allocatedBy(func() { got, err = Load(path) })
	if err != nil {
		t.Fatal(err)
	}
	cols := got.Columns()
	if got.Len() != orig.Len() || got.At(got.Len()-1) != orig.At(orig.Len()-1) {
		t.Fatalf("loaded %d accesses, want %d", got.Len(), orig.Len())
	}
	if limit := uint64(cols.Bytes()) * 13 / 10; alloc > limit {
		t.Errorf("Load allocated %d bytes for %d bytes of columns, want at most %d", alloc, cols.Bytes(), limit)
	}
}

// TestLoadForgedCountBoundedByFileSize: a header may claim up to 2^28
// accesses, but a 100-byte file cannot hold them, so Load must fail
// without reserving columns for the claimed count.
func TestLoadForgedCountBoundedByFileSize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(traceMagicV02[:])
	binary.Write(&buf, binary.LittleEndian, uint16(1))
	buf.WriteString("x")
	binary.Write(&buf, binary.LittleEndian, uint64(maxAccesses))
	buf.Write(make([]byte, 100-buf.Len()))
	path := filepath.Join(t.TempDir(), "forged.mostrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	if alloc := allocatedBy(func() { _, err = Load(path) }); alloc >= 1<<20 {
		t.Errorf("Load of a forged 100-byte file allocated %d bytes, want under 1 MB", alloc)
	}
	if err == nil {
		t.Error("forged count loaded without error")
	}
}

// TestSaveAtomicNoLeftovers: Save goes through a temp file + rename, so a
// completed Save leaves exactly the target file — no .tmp droppings — and
// overwrites an existing file in place.
func TestSaveAtomicNoLeftovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mostrace")
	for seed := int64(1); seed <= 2; seed++ { // second pass overwrites
		orig := randomTestTrace(seed, 500)
		if err := orig.Save(path); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "t.mostrace" {
			names := make([]string, 0, len(entries))
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want exactly t.mostrace", names)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != orig.Len() {
			t.Fatalf("loaded %d accesses, want %d", got.Len(), orig.Len())
		}
	}
}

// TestLoadRejectsTruncated: every proper prefix of a MOSTRC02 file —
// what a crash mid-write would have left before Save became atomic — must
// fail to load rather than parse as a shorter trace.
func TestLoadRejectsTruncated(t *testing.T) {
	orig := randomTestTrace(7, 9000) // spans multiple v02 blocks
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	path := filepath.Join(t.TempDir(), "t.mostrace")
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
		cut := int(float64(len(full)) * frac)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncated file (%d of %d bytes) loaded without error", cut, len(full))
		}
	}
}
