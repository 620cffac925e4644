package bench

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark is meant for share their cores, caches and
// memory with other tenants, and their speed drifts over minutes: on a
// 2-core KVM guest the same Standard sweep of gups/8GB + spec06/mcf took
// 2.0 s in one set of runs and 3.5 s an hour later, with process CPU time
// tracking wall time (the work itself ran slower; no steal, no change in
// garbage collection). No run length averages that out, so the time metrics
// are calibrated. Each is the measured time (wall time, or mosd's CPU time
// per request) scaled by how fast a fixed reference kernel ran just before
// and just after it in the same process, to the speed at which the kernel
// takes refNominal. The kernel is the benchmark's own code, so a change to
// the simulator cannot move it; the raw times are kept as detail.

// refNominal is the reference kernel's duration at the speed calibrated
// times are expressed in: about its fastest time on the host above.
const refNominal = 200 * time.Millisecond

// refAccesses is how many accesses each of the kernel's workers simulates.
const refAccesses = 1 << 21

// Table sizes of one worker, in 8-byte words: a TLB, three cache levels
// (set-associative, LRU), and a page-table-sized array.
const (
	refTLBSets, refTLBWays = 256, 4
	refL1Sets, refL1Ways   = 64, 8
	refL2Sets, refL2Ways   = 1024, 8
	refL3Sets, refL3Ways   = 16384, 16
	refPTWords             = 1 << 20
	refWords               = refTLBSets*refTLBWays + refL1Sets*refL1Ways + refL2Sets*refL2Ways + refL3Sets*refL3Ways + refPTWords
)

// refLevel is a set-associative tag array with LRU order in each set.
type refLevel struct {
	tags []uint64
	ways int
	mask uint64
}

// access looks line up and moves it to the front of its set.
func (l refLevel) access(line uint64) bool {
	set := int(line&l.mask) * l.ways
	row := l.tags[set : set+l.ways]
	for i, t := range row {
		if t == line+1 {
			copy(row[1:i+1], row[:i])
			row[0] = line + 1
			return true
		}
	}
	copy(row[1:], row[:len(row)-1])
	row[0] = line + 1
	return false
}

// refWorker is one core's share of the kernel, shaped like the simulator's
// own layers. Its tables live in memory mapped outside the Go heap, so they
// neither move the collector's pacing nor hide in the heap: peakRSSMB
// subtracts exactly their size.
type refWorker struct {
	words           []uint64
	tlb, l1, l2, l3 refLevel
	pt              []uint64
	sum             uint64
}

func newRefWorker() (*refWorker, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	w := &refWorker{words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)}
	rest := w.words
	carve := func(sets, ways int) refLevel {
		l := refLevel{tags: rest[:sets*ways], ways: ways, mask: uint64(sets - 1)}
		rest = rest[sets*ways:]
		return l
	}
	w.tlb = carve(refTLBSets, refTLBWays)
	w.l1 = carve(refL1Sets, refL1Ways)
	w.l2 = carve(refL2Sets, refL2Ways)
	w.l3 = carve(refL3Sets, refL3Ways)
	w.pt = rest
	return w, nil
}

// run feeds the worker refAccesses addresses, three in four a sequential
// walk through 4 MB and one in four uniform over 8 GB, and returns how long
// that took.
func (w *refWorker) run(seed uint64) time.Duration {
	clear(w.words)
	start := time.Now()
	x, seq := seed|1, uint64(0)
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		va := x & (1<<33 - 1)
		if x&3 != 0 {
			seq += 64
			va = seq & (1<<22 - 1)
		}
		page := va >> 12
		if !w.tlb.access(page) {
			e := &w.pt[page&(refPTWords-1)]
			*e += va
			w.sum += *e
		}
		if line := va >> 6; !w.l1.access(line) && !w.l2.access(line) {
			w.l3.access(line)
		}
	}
	return time.Since(start)
}

// refKernel measures host speed. Its workers, one per core the process may
// use, are set up once, so every measurement times the same work on
// resident memory.
type refKernel struct {
	workers []*refWorker
	// samples are every measurement so far, in seconds.
	samples []float64
}

func newRefKernel() (*refKernel, error) {
	k := &refKernel{}
	for range runtime.GOMAXPROCS(0) {
		w, err := newRefWorker()
		if err != nil {
			return nil, err
		}
		k.workers = append(k.workers, w)
	}
	k.measure() // faults the tables in
	k.samples = nil
	return k, nil
}

// residentMB is the memory the kernel's tables keep resident.
func (k *refKernel) residentMB() float64 {
	return float64(len(k.workers)*refWords*8) / (1 << 20)
}

// measure runs every worker at once and returns the mean of their
// durations, in seconds: the speed of the cores as the sweeps, which keep
// every core busy, see them.
func (k *refKernel) measure() float64 {
	durs := make([]time.Duration, len(k.workers))
	var wg sync.WaitGroup
	for i, w := range k.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs[i] = w.run(uint64(i+1) * 0x9e3779b97f4a7c15)
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	s := (total / time.Duration(len(durs))).Seconds()
	k.samples = append(k.samples, s)
	return s
}

// calibration is the factor that scales a time measured between two kernel
// measurements, before and after, to the speed at which the kernel takes
// refNominal.
func calibration(before, after float64) float64 {
	return refNominal.Seconds() / ((before + after) / 2)
}

// slowdown is the run's median kernel time over refNominal: above 1, the
// host ran slower than the speed calibrated times are expressed in.
func (k *refKernel) slowdown() float64 {
	return median(k.samples) / refNominal.Seconds()
}
