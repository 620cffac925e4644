// Command genfuzzseeds regenerates the committed fuzz seed corpora under
// internal/{trace,cluster}/testdata/fuzz. The seeds are valid wire
// streams produced by the real encoders — plus deliberate truncations and
// corruptions — so `go test -fuzz` starts from inputs that exercise the
// deep decode paths instead of spending its budget rediscovering the magic
// bytes. Run it from the module root after a wire-format change:
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

	"mosaic/internal/cluster"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genfuzzseeds: ")
	writeAll("internal/trace/testdata/fuzz/FuzzTraceRoundTrip", traceSeeds())
	writeAll("internal/cluster/testdata/fuzz/FuzzShardRoundTrip", shardSeeds())
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

func shardSeeds() map[string][]byte {
	spec := &cluster.ShardSpec{
		Key:      "job-1/0-4",
		Job:      "job-1",
		Workload: "gups",
		Platform: "skylake",
		Proto:    "standard",
		Sampling: sim.Sampling{Period: 1000, MeasureLen: 100, WarmupLen: 200},
		Lo:       0,
		Hi:       4,
	}
	specB, err := spec.Encode()
	if err != nil {
		log.Fatal(err)
	}
	res := &cluster.ShardResult{
		Key: "job-1/0-4",
		Job: "job-1",
		Lo:  0,
		Hi:  2,
		Results: []cluster.LayoutResult{
			{Layout: "4k", Result: sim.Result{Counters: pmu.Counters{H: 10, M: 2, C: 100, R: 5000}}},
			{Layout: "2m-50", Result: sim.Result{
				Counters:         pmu.Counters{H: 12, M: 1, C: 80, R: 4800},
				WalkRefs:         17,
				MeasuredAccesses: 100,
				TotalAccesses:    1000,
			}},
		},
	}
	resB, err := res.Encode()
	if err != nil {
		log.Fatal(err)
	}
	phased := &cluster.ShardResult{
		Key: "job-2/3-4",
		Job: "job-2",
		Lo:  3,
		Hi:  4,
		Results: []cluster.LayoutResult{
			{Layout: "1g", Result: sim.Result{
				Counters: pmu.Counters{H: 9, M: 3, C: 70, R: 4000, TLBLookups: 500},
				Phases: []sim.PhaseResult{
					{Name: "load", Counters: pmu.Counters{H: 4, M: 1, C: 30, R: 1500, TLBLookups: 200}, WalkRefs: 2},
					{Name: "compact", Counters: pmu.Counters{H: 5, M: 2, C: 40, R: 2500, TLBLookups: 300},
						MeasuredAccesses: 60, TotalAccesses: 300},
				},
			}},
		},
	}
	phasedB, err := phased.Encode()
	if err != nil {
		log.Fatal(err)
	}
	corrupt := append([]byte(nil), specB...)
	corrupt[len(corrupt)-1] ^= 0xff // break the checksum trailer
	return map[string][]byte{
		"seed-spec":          specB,
		"seed-result":        resB,
		"seed-spec-badsum":   corrupt,
		"seed-result-trunc":  append([]byte(nil), resB[:len(resB)-9]...),
		"seed-result-phased": phasedB,
	}
}
