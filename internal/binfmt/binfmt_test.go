package binfmt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mosaic/internal/binfmt"
	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// filler sets every field it reaches to a distinct non-zero value, so a
// field a walk drops (or two fields a walk swaps) cannot round-trip.
type filler struct{ next uint64 }

func (f *filler) fill(v reflect.Value) {
	f.next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.next)
	case reflect.Int:
		v.SetInt(int64(f.next))
	case reflect.Float64:
		v.SetFloat(float64(f.next) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	default:
		panic("filler: unhandled kind " + v.Kind().String())
	}
}

func filled[T any](f *filler) *T {
	var v T
	f.fill(reflect.ValueOf(&v).Elem())
	return &v
}

// TestEveryFieldRoundTrips holds the MOSTRC02 walks to the whole of their
// Go types: the header name, every access and every field of every Phase
// is set, written, read back, and compared. Only the phase bounds, which
// the format validates, are fixed up.
func TestEveryFieldRoundTrips(t *testing.T) {
	f := &filler{}
	phases := *filled[[]trace.Phase](f)
	for i := range phases {
		phases[i].Lo, phases[i].Hi = 2*i, 2*i+2 // a contiguous partition of the trace
	}
	accesses := make([]trace.Access, 2*len(phases))
	for i := range accesses {
		accesses[i] = *filled[trace.Access](f)
	}
	want := trace.New(*filled[string](f), accesses)
	if err := want.SetPhases(phases); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got trace.Trace
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.Phases(), want.Phases()) {
		t.Errorf("header and phases round trip: got %q %+v, want %q %+v", got.Name, got.Phases(), want.Name, want.Phases())
	}
	if got.Len() != want.Len() {
		t.Fatalf("round trip holds %d accesses, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Errorf("access %d: got %+v, want %+v", i, got.At(i), want.At(i))
		}
	}
}

// TestSealOpen: Open returns exactly the sealed bytes, and rejects a
// flipped bit anywhere, a truncation, and input too short for a trailer.
func TestSealOpen(t *testing.T) {
	body := []byte("sealed payload")
	sealed := binfmt.Seal(append([]byte(nil), body...))
	if got, err := binfmt.Open(sealed); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Open(Seal(b)) = %q, %v; want %q", got, err, body)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x10
		if _, err := binfmt.Open(bad); err == nil {
			t.Errorf("a flipped bit in byte %d opened cleanly", i)
		}
	}
	for _, n := range []int{0, 7, len(sealed) - 1} {
		if _, err := binfmt.Open(sealed[:n]); err == nil {
			t.Errorf("a %d-byte prefix opened cleanly", n)
		}
	}
}

// TestTraceHeaderAndPhasesRoundTrip covers the MOSTRC02 walks: the name in
// the header and every field of every phase.
func TestTraceHeaderAndPhasesRoundTrip(t *testing.T) {
	tb := trace.NewBuilder("header-name", 8)
	for i, name := range []string{"load", "probe", "compact"} {
		tb.BeginPhase(name)
		for j := 0; j <= i; j++ {
			tb.Load(mem.Addr(0x1000 * (i + j + 1)))
		}
	}
	want := tb.Trace()
	var buf bytes.Buffer
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got trace.Trace
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.Phases(), want.Phases()) {
		t.Errorf("trace round trip: got %q %+v, want %q %+v", got.Name, got.Phases(), want.Name, want.Phases())
	}
}

func TestFNV1a(t *testing.T) {
	// Published FNV-1a 64-bit test vectors.
	for in, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := binfmt.FNV1a(in); got != want {
			t.Errorf("FNV1a(%q) = %#x, want %#x", in, got, want)
		}
		if got := binfmt.FNV1a([]byte(in)); got != want {
			t.Errorf("FNV1a([]byte(%q)) = %#x, want %#x", in, got, want)
		}
	}
}

// TestWriteFileAtomicFailedWrite: a write callback that fails leaves the
// old file as it was and no temp file behind.
func TestWriteFileAtomicFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := binfmt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Errorf("file holds %q after a failed write, want the old content", b)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files in the directory, want 1 (no temp left behind)", len(entries))
	}
}
