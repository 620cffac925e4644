// Package cluster shards the measurement sweep across processes: a
// coordinator decomposes a sweep into (workload, platform, layout-batch)
// shards, a fleet of worker processes lease and execute them through the
// existing replay pipeline, and the coordinator merges completed shards —
// in deterministic shard-key order — into exactly the per-layout results a
// single-node sweep would produce. The economy is the paper's own: replay
// results are pure functions of (trace, platform, layout, sampling plan),
// so shard execution is *verifiably* correct — a merged distributed run
// must equal a single-node run bit for bit, and the golden tests hold it
// to that.
//
// Worker health is lease-based: a worker registers, heartbeats, and leases
// one shard at a time; a worker that dies mid-shard stops heartbeating,
// its lease expires, and the shard is retried on the next live worker.
// Retries cannot change the answer — determinism again — so the failure
// model is simply "a shard is re-run until some worker finishes it".
package cluster

import (
	"bytes"
	"fmt"

	"mosaic/internal/binfmt"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
)

// The MOSSHRD wire format carries shard specs (coordinator → worker) and
// shard results (worker → coordinator) as HTTP bodies. Each payload is one
// field walk over the internal/binfmt codec shared with MOSTRC02 (fixed
// magic, version byte, bounded length fields validated before allocation,
// little-endian fixed-width integers), sealed with a trailing FNV-1a
// checksum over everything before it, so a truncated or corrupted payload
// is rejected rather than half-decoded into a sweep.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "MOSSHRD0"
//	version  byte     '2' (bytes 0..9 spell "MOSSHRD02")
//	kind     byte     'S' = shard spec, 'R' = shard result
//	spec:    key, job, workload, platform, proto (u16-len strings),
//	         sampling 4×u32, lo u32, hi u32
//	result:  key, job (u16-len strings), lo u32, hi u32,
//	         (hi-lo) × { layout (u16-len string), 14×u64 counters,
//	                     walkRefs u64, measured u64, total u64,
//	                     phases u16, phases × { name (u16-len string),
//	                       14×u64 counters, walkRefs u64, measured u64,
//	                       total u64 } }
//	checksum u64      FNV-1a of all preceding bytes
//
// Version 2 added the per-layout phase section (phased traces attribute
// counters per regime; the fleet merge must preserve that attribution
// bit-identically). Version skew is a hard error in both directions: a
// v1 result silently stripped of phases would break the solo-vs-fleet
// bit-identity contract, so mixed-version fleets are rejected at decode.
var magic = [8]byte{'M', 'O', 'S', 'S', 'H', 'R', 'D', '0'}

// wireVersion is the format version byte following the magic.
const wireVersion = '2'

// Payload kind bytes.
const (
	kindSpec   = 'S'
	kindResult = 'R'
)

const (
	// maxStrLen bounds every string field (keys, names).
	maxStrLen = 1 << 12
	// maxSpanLayouts bounds a shard's layout span; the largest real
	// protocol is ~103 layouts.
	maxSpanLayouts = 1 << 16
	// maxWirePhases bounds a layout result's phase rows, mirroring the
	// trace layer's phase-count sanity bound.
	maxWirePhases = 1 << 12
)

// ShardSpec is one unit of distributed work: replay the layout span
// [Lo, Hi) of the pair's deterministic protocol order at the given
// fidelity. The worker re-derives the layouts from (workload, platform,
// proto) — protocol planning is seeded by the pair key, so every process
// plans the identical layout sequence and the spec only needs indices.
type ShardSpec struct {
	// Key is the coordinator-assigned shard identity ("job/lo-hi").
	Key string
	// Job is the coordinator's sweep-job identity the shard belongs to.
	Job string
	// Workload, Platform, Proto name the pair and its layout protocol
	// ("quick", "standard", or "extended").
	Workload string
	Platform string
	Proto    string
	// Sampling is the resolved replay fidelity (zero value = exact).
	Sampling sim.Sampling
	// Lo, Hi bound the layout span [Lo, Hi) in protocol order.
	Lo, Hi int
}

// LayoutResult pairs one layout's name with its replay result — the unit
// the coordinator merges, in layout order, into a dataset.
type LayoutResult struct {
	Layout string
	Result sim.Result
}

// ShardResult carries a completed shard's per-layout results back to the
// coordinator. Layout names travel with the counters so the merge can
// cross-check them against the coordinator's own protocol plan.
type ShardResult struct {
	Key string
	Job string
	Lo  int
	Hi  int
	// Results holds one entry per layout of the span, in span order.
	Results []LayoutResult
}

// walkSpan walks a shard's layout span and checks it.
func walkSpan(c *binfmt.Codec, lo, hi *int) {
	c.IntU32(lo)
	c.IntU32(hi)
	if c.Err() == nil && (*hi <= *lo || *hi-*lo > maxSpanLayouts) {
		c.Failf("invalid layout span [%d, %d)", *lo, *hi)
	}
}

// walkEnvelope walks the magic, version, and kind bytes every payload
// opens with.
func walkEnvelope(c *binfmt.Codec, kind byte) {
	c.Tag(magic[:], "magic")
	c.Tag([]byte{wireVersion}, "MOSSHRD version")
	c.Tag([]byte{kind}, "payload kind")
}

// walkCounters walks one result row's counters in fixed wire order;
// Result and PhaseResult rows share it.
func walkCounters(c *binfmt.Codec, k *pmu.Counters, walkRefs, measured, total *uint64) {
	for _, w := range []*uint64{
		&k.R, &k.H, &k.M, &k.C, &k.Instructions,
		&k.L1DLoadsProgram, &k.L1DLoadsWalker,
		&k.L2LoadsProgram, &k.L2LoadsWalker,
		&k.L3LoadsProgram, &k.L3LoadsWalker,
		&k.DRAMLoadsProgram, &k.DRAMLoadsWalker,
		&k.TLBLookups,
		walkRefs, measured, total,
	} {
		c.U64(w)
	}
}

// walk is the spec payload layout: Encode and DecodeSpec both run it.
func (s *ShardSpec) walk(c *binfmt.Codec) {
	walkEnvelope(c, kindSpec)
	for _, f := range []*string{&s.Key, &s.Job, &s.Workload, &s.Platform, &s.Proto} {
		c.Str(f, maxStrLen)
	}
	sp := &s.Sampling
	for _, f := range []*int{&sp.Period, &sp.MeasureLen, &sp.WarmupLen, &sp.PrologueLen} {
		c.IntU32(f)
	}
	walkSpan(c, &s.Lo, &s.Hi)
}

// walk is the result payload layout: Encode and DecodeResult both run it.
func (r *ShardResult) walk(c *binfmt.Codec) {
	walkEnvelope(c, kindResult)
	c.Str(&r.Key, maxStrLen)
	c.Str(&r.Job, maxStrLen)
	walkSpan(c, &r.Lo, &r.Hi)
	if c.Err() != nil {
		return
	}
	if !c.Decoding() && len(r.Results) != r.Hi-r.Lo {
		c.Failf("shard %s carries %d results for a %d-layout span", r.Key, len(r.Results), r.Hi-r.Lo)
	}
	binfmt.Slice(c, &r.Results, r.Hi-r.Lo, func(lr *LayoutResult) {
		res := &lr.Result
		c.Str(&lr.Layout, maxStrLen)
		walkCounters(c, &res.Counters, &res.WalkRefs, &res.MeasuredAccesses, &res.TotalAccesses)
		n := c.Len16(len(res.Phases), maxWirePhases, "phase rows")
		binfmt.Slice(c, &res.Phases, n, func(ph *sim.PhaseResult) {
			c.Str(&ph.Name, maxStrLen)
			walkCounters(c, &ph.Counters, &ph.WalkRefs, &ph.MeasuredAccesses, &ph.TotalAccesses)
		})
	})
}

// encode runs a payload walk in encode mode and seals the bytes.
func encode(walk func(*binfmt.Codec)) ([]byte, error) {
	c := binfmt.NewEncoder()
	walk(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return binfmt.Seal(c.Bytes()), nil
}

// decode verifies a payload's checksum trailer, then runs its walk in
// decode mode over the body and rejects trailing bytes.
func decode(b []byte, walk func(*binfmt.Codec)) error {
	if len(b) < len(magic)+2+8 {
		return fmt.Errorf("cluster: payload of %d bytes is shorter than the MOSSHRD02 envelope", len(b))
	}
	body, err := binfmt.Open(b)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c := binfmt.NewDecoder(bytes.NewReader(body))
	walk(c)
	if c.Err() == nil && c.N() != int64(len(body)) {
		c.Failf("%d trailing bytes after payload", int64(len(body))-c.N())
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Encode serializes the spec as a MOSSHRD02 payload.
func (s *ShardSpec) Encode() ([]byte, error) { return encode(s.walk) }

// Encode serializes the result as a MOSSHRD02 payload.
func (r *ShardResult) Encode() ([]byte, error) { return encode(r.walk) }

// DecodeSpec parses a MOSSHRD02 shard-spec payload.
func DecodeSpec(b []byte) (*ShardSpec, error) {
	var s ShardSpec
	if err := decode(b, s.walk); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeResult parses a MOSSHRD02 shard-result payload.
func DecodeResult(b []byte) (*ShardResult, error) {
	var r ShardResult
	if err := decode(b, r.walk); err != nil {
		return nil, err
	}
	return &r, nil
}
