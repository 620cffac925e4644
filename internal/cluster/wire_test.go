package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"mosaic/internal/sim"
)

// sampleSpec builds a fully populated spec for codec tests.
func sampleSpec() *ShardSpec {
	return &ShardSpec{
		Key:      "abc123-000001/00000-00004",
		Job:      "abc123-000001",
		Workload: "seq/stride64",
		Platform: "broadwell",
		Proto:    "quick",
		Sampling: sim.Sampling{Period: 65536, MeasureLen: 3072, WarmupLen: 8192, PrologueLen: 32768},
		Lo:       0,
		Hi:       4,
	}
}

// sampleResult builds a result whose counters exercise every wire field
// with distinct values, so a swapped field order cannot round-trip.
func sampleResult() *ShardResult {
	res := &ShardResult{
		Key: "abc123-000001/00000-00002",
		Job: "abc123-000001",
		Lo:  0,
		Hi:  2,
	}
	for i := 0; i < 2; i++ {
		lr := LayoutResult{Layout: []string{"4KB", "2MB"}[i]}
		words := counterWords(&lr.Result)
		for j, w := range words {
			*w = uint64(1000*i + 17*j + 3)
		}
		// One layout carries phase rows, one does not — both shapes must
		// round-trip (phase-less layouts encode a zero-count section).
		if i == 0 {
			lr.Result.Phases = make([]sim.PhaseResult, 2)
			for pi := range lr.Result.Phases {
				ph := &lr.Result.Phases[pi]
				ph.Name = []string{"build", "probe"}[pi]
				for j, w := range phaseWords(ph) {
					*w = uint64(5000*pi + 13*j + 7)
				}
			}
		}
		res.Results = append(res.Results, lr)
	}
	return res
}

func TestSpecRoundTrip(t *testing.T) {
	want := sampleSpec()
	b, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestResultRoundTrip(t *testing.T) {
	want := sampleResult()
	b, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// counterWords and phaseWords address every uint64 field of a result row
// (the counters, then WalkRefs, MeasuredAccesses, TotalAccesses) so
// fixtures can fill them with distinct values.
func counterWords(r *sim.Result) []*uint64    { return uint64Fields(reflect.ValueOf(r).Elem()) }
func phaseWords(p *sim.PhaseResult) []*uint64 { return uint64Fields(reflect.ValueOf(p).Elem()) }

func uint64Fields(v reflect.Value) []*uint64 {
	var out []*uint64
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			out = append(out, f.Addr().Interface().(*uint64))
		case reflect.Struct:
			out = append(out, uint64Fields(f)...)
		}
	}
	return out
}

func TestDecodeRejectsCorruption(t *testing.T) {
	spec, err := sampleSpec().Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sampleResult().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		spec bool
	}{
		{"empty", nil, true},
		{"magic only", []byte("MOSSHRD0"), true},
		{"wrong magic", append([]byte("MOSSHRDX"), spec[8:]...), true},
		{"version skew (v1 payload)", mutate(spec, 8, '1'), true},
		{"version skew (future)", mutate(spec, 8, '3'), true},
		{"wrong kind for spec", res, true},
		{"wrong kind for result", spec, false},
		{"truncated spec", spec[:len(spec)-3], true},
		{"truncated result", res[:len(res)/2], false},
		{"flipped payload bit", mutate(spec, 20, spec[20]^1), true},
		{"flipped checksum bit", mutate(res, len(res)-1, res[len(res)-1]^1), false},
		{"trailing garbage", append(append([]byte{}, spec...), 0xAB), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.spec {
				_, err = DecodeSpec(tc.b)
			} else {
				_, err = DecodeResult(tc.b)
			}
			if err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
		})
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	bad := sampleSpec()
	bad.Lo, bad.Hi = 3, 3
	if _, err := bad.Encode(); err == nil {
		t.Fatal("Encode accepted an empty span")
	}
	neg := sampleSpec()
	neg.Sampling.Period = -1
	if _, err := neg.Encode(); err == nil {
		t.Fatal("Encode accepted a negative sampling parameter")
	}
	short := sampleResult()
	short.Results = short.Results[:1]
	if _, err := short.Encode(); err == nil {
		t.Fatal("Encode accepted a result with fewer entries than its span")
	}
	long := sampleSpec()
	long.Key = string(make([]byte, maxStrLen+1))
	if _, err := long.Encode(); err == nil {
		t.Fatal("Encode accepted an overlong string field")
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}

// FuzzShardRoundTrip holds the codec to the MOSTRC02 contract:
// arbitrary bytes either fail to decode or decode into a value whose
// re-encoding is a fixed point; truncated and version-skewed payloads are
// always rejected.
func FuzzShardRoundTrip(f *testing.F) {
	spec, err := sampleSpec().Encode()
	if err != nil {
		f.Fatal(err)
	}
	res, err := sampleResult().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec)
	f.Add(res)
	f.Add([]byte{})
	f.Add([]byte("MOSSHRD0")) // magic only
	f.Add(mutate(spec, 8, '1'))
	f.Add(mutate(res, 8, '0'))
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
		f.Add(append([]byte(nil), spec[:int(float64(len(spec))*frac)]...))
		f.Add(append([]byte(nil), res[:int(float64(len(res))*frac)]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeSpec(data); err == nil {
			b, err := s.Encode()
			if err != nil {
				t.Fatalf("accepted spec failed to re-encode: %v", err)
			}
			if !bytes.Equal(b, data) {
				t.Fatal("spec decode → encode is not a fixed point")
			}
		}
		if r, err := DecodeResult(data); err == nil {
			b, err := r.Encode()
			if err != nil {
				t.Fatalf("accepted result failed to re-encode: %v", err)
			}
			if !bytes.Equal(b, data) {
				t.Fatal("result decode → encode is not a fixed point")
			}
		}
	})
}
