// Command genfuzzseeds regenerates the committed fuzz seed corpus under
// internal/trace/testdata/fuzz. The seeds are valid trace streams produced
// by the real encoders — plus deliberate truncations — so `go test -fuzz`
// starts from inputs that exercise the deep decode paths instead of
// spending its budget rediscovering the magic bytes. Run it from the
// module root after a trace-format change:
//
//	go run ./cmd/genfuzzseeds
//
// Output files use the `go test fuzz v1` corpus encoding and are
// deterministic: regenerating without a format change is a no-op diff.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"mosaic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genfuzzseeds: ")
	writeAll("internal/trace/testdata/fuzz/FuzzTraceRoundTrip", traceSeeds())
}

// writeAll writes each named seed as one `go test fuzz v1` corpus file.
func writeAll(dir string, seeds map[string][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d bytes)", path, len(data))
	}
}

func traceSeeds() map[string][]byte {
	accesses := []trace.Access{
		{VA: 0x1000, Gap: 3},
		{VA: 0x1040, Gap: 1, Write: true},
		{VA: 0x200000, Gap: 7, Dep: true},
		{VA: 0x1080, Gap: 0},
		{VA: 0x40000000, Gap: 12, Write: true, Dep: true},
		{VA: 0x10c0, Gap: 2},
	}
	tr := trace.New("seed", accesses)
	var v1, v2 bytes.Buffer
	if _, err := tr.WriteToV01(&v1); err != nil {
		log.Fatal(err)
	}
	if _, err := tr.WriteTo(&v2); err != nil {
		log.Fatal(err)
	}
	pb := trace.NewBuilder("seed-phased", len(accesses))
	for i, a := range accesses {
		switch i {
		case 0:
			pb.BeginPhase("ramp")
		case 3:
			pb.BeginPhase("steady")
		}
		pb.Compute(uint64(a.Gap))
		switch {
		case a.Write && a.Dep:
			pb.StoreDep(a.VA)
		case a.Write:
			pb.Store(a.VA)
		case a.Dep:
			pb.LoadDep(a.VA)
		default:
			pb.Load(a.VA)
		}
	}
	phased := pb.Trace()
	var vp bytes.Buffer
	if _, err := phased.WriteTo(&vp); err != nil {
		log.Fatal(err)
	}
	return map[string][]byte{
		"seed-v01":          v1.Bytes(),
		"seed-v02":          v2.Bytes(),
		"seed-phased":       vp.Bytes(),
		"seed-phased-trunc": vp.Bytes()[:vp.Len()-7],
	}
}
