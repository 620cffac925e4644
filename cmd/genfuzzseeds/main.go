// Command genfuzzseeds regenerates the committed fuzz seed corpora under
// internal/{trace,ckpt,cluster}/testdata/fuzz. The seeds are valid wire
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

	"mosaic/internal/cache"
	"mosaic/internal/ckpt"
	"mosaic/internal/cluster"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/trace"
	"mosaic/internal/walker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genfuzzseeds: ")
	writeAll("internal/trace/testdata/fuzz/FuzzTraceRoundTrip", traceSeeds())
	writeAll("internal/ckpt/testdata/fuzz/FuzzCheckpointRoundTrip", ckptSeeds())
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

func ckptSeeds() map[string][]byte {
	st := &ckpt.MachineState{
		HasClock:     true,
		Now:          1234.5,
		MissRate:     0.25,
		WalkCycles:   99,
		Instructions: 4096,
		Breakdown:    [5]float64{1, 2, 3, 4, 5},
		WalkerFree:   []float64{10, 20},
	}
	st.TLB.L14K = []uint64{1, 2, 3, 4}
	st.TLB.L2 = []uint64{5, 6}
	st.TLB.Counts.Lookups = 400
	st.TLB.Counts.Misses = 9
	st.TLB.MissBySize = [4]uint64{4, 3, 2, 0}
	st.Hier.L1.Tags = []uint32{7, 8, 9}
	st.Hier.L2.Tags = []uint32{10}
	st.Hier.L3.Tags = []uint32{11, 12}
	st.Walk.PML4.Entries = 1
	st.Walk.PML4.Keys = []uint64{0xfee}
	st.Walk.PML4.Prev = []uint16{0}
	st.Walk.PML4.Next = []uint16{0}
	st.Walk.Stats.Walks = 9
	st.Walk.Stats.WalkCycles = 99
	var buf bytes.Buffer
	if _, err := st.Encode(&buf, "seed/pair@plat", 42); err != nil {
		log.Fatal(err)
	}
	valid := buf.Bytes()
	badVer := append([]byte(nil), valid...)
	badVer[8] = '9'

	// A partial-simulator state: no clock section values, the walker-private
	// ablation cache present, and every PWC populated.
	full := &ckpt.MachineState{Metrics: [5]uint64{11, 12, 13, 14, 15}}
	full.SumTLB.Lookups = 77
	full.SumHier.DRAMLoads.Walker = 5
	full.TLB.L12M = []uint64{21}
	full.TLB.L11G = []uint64{22}
	full.TLB.L21G = []uint64{23, 24}
	full.Hier.L1.Tags = []uint32{31}
	full.Hier.WalkerPrivate = &cache.CacheState{Tags: []uint32{41, 42, 43}}
	full.Hier.Stats.L2Loads.Program = 6
	for i, p := range []*walker.PWCState{&full.Walk.PML4, &full.Walk.PDPT, &full.Walk.PD} {
		p.Entries = 4
		p.Keys = []uint64{uint64(0x100 * (i + 1)), uint64(0x100*(i+1) + 1)}
		p.Prev = []uint16{1, 0}
		p.Next = []uint16{1, 0}
		p.Head, p.Tail = 0, 1
	}
	full.Walk.Stats.Faults = 3
	var fbuf bytes.Buffer
	if _, err := full.Encode(&fbuf, "seed/partial@plat", 7); err != nil {
		log.Fatal(err)
	}
	return map[string][]byte{
		"seed-valid":  valid,
		"seed-trunc":  append([]byte(nil), valid[:len(valid)/2]...),
		"seed-badver": badVer,
		"seed-full":   fbuf.Bytes(),
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
