package trace

import (
	"slices"

	"mosaic/internal/mem"
)

// Columns is the structure-of-arrays representation of a trace: virtual
// addresses, instruction gaps, and the write/dep flags packed one bit per
// access. It exists for replay throughput — a sweep streams the same trace
// dozens of times, and the columnar layout cuts the bytes per access from
// 16 (the padded Access struct) to ~12.3 while letting the replay kernels
// (cpu.Machine.Measure, partialsim.Simulator.Measure) walk the address
// column sequentially.
//
// A Columns value may be a view into a larger trace (see Slice): va and gap
// are re-sliced directly, while the flag bitsets are shared whole and
// indexed through a bit offset, so views at non-word-aligned positions need
// no copying.
type Columns struct {
	va  []uint64
	gap []uint32
	// write and dep are bitsets over the underlying trace; access i of this
	// view is bit off+i.
	write []uint64
	dep   []uint64
	off   int
}

// Len returns the number of accesses.
func (c *Columns) Len() int { return len(c.va) }

// Bytes returns the in-memory footprint of the columns: the quantity a
// replay pass streams, and what a trace costs to hold in memory.
func (c *Columns) Bytes() int {
	return 8*len(c.va) + 4*len(c.gap) + 8*len(c.write) + 8*len(c.dep)
}

// VA returns access i's virtual address.
func (c *Columns) VA(i int) mem.Addr { return mem.Addr(c.va[i]) }

// Gap returns access i's instruction gap.
func (c *Columns) Gap(i int) uint32 { return c.gap[i] }

// Write reports whether access i is a store.
func (c *Columns) Write(i int) bool {
	j := c.off + i
	return c.write[j>>6]>>(uint(j)&63)&1 != 0
}

// Dep reports whether access i depends on the previous access's result.
func (c *Columns) Dep(i int) bool {
	j := c.off + i
	return c.dep[j>>6]>>(uint(j)&63)&1 != 0
}

// At materializes access i as a row record.
func (c *Columns) At(i int) Access {
	return Access{VA: c.VA(i), Gap: c.gap[i], Write: c.Write(i), Dep: c.Dep(i)}
}

// Append adds one access. Append is only valid on a root Columns (not a
// Slice view); views share their parent's bitsets and must stay read-only.
func (c *Columns) Append(a Access) {
	i := c.off + len(c.va)
	c.va = append(c.va, uint64(a.VA))
	c.gap = append(c.gap, a.Gap)
	if i>>6 >= len(c.write) {
		c.write = append(c.write, 0)
		c.dep = append(c.dep, 0)
	}
	if a.Write {
		c.write[i>>6] |= 1 << (uint(i) & 63)
	}
	if a.Dep {
		c.dep[i>>6] |= 1 << (uint(i) & 63)
	}
}

// extend appends n accesses to a root Columns and returns their VA and gap
// entries for a decoder to fill in place; their flag bits start clear and
// are set with setFlags. Capacity reserved by Grow is used first; beyond
// it the columns grow as append grows a slice.
func (c *Columns) extend(n int) (va []uint64, gap []uint32) {
	lo := len(c.va)
	c.va = slices.Grow(c.va, n)[:lo+n]
	c.gap = slices.Grow(c.gap, n)[:lo+n]
	for words := (lo + n + 63) >> 6; len(c.write) < words; {
		c.write = append(c.write, 0)
		c.dep = append(c.dep, 0)
	}
	return c.va[lo:], c.gap[lo:]
}

// setFlags sets access i's write and dep bits from an encoded flag byte
// (bit0 = write, bit1 = dependent) on a root Columns.
func (c *Columns) setFlags(i int, flags byte) {
	w, bit := i>>6, uint(i)&63
	c.write[w] |= uint64(flags&flagWrite) << bit
	c.dep[w] |= uint64(flags&flagDep>>1) << bit
}

// Grow pre-allocates capacity for n additional accesses.
func (c *Columns) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(c.va)-len(c.va) < n {
		va := make([]uint64, len(c.va), len(c.va)+n)
		copy(va, c.va)
		c.va = va
		gap := make([]uint32, len(c.gap), len(c.gap)+n)
		copy(gap, c.gap)
		c.gap = gap
	}
	words := (c.off + len(c.va) + n + 63) >> 6
	if cap(c.write) < words {
		w := make([]uint64, len(c.write), words)
		copy(w, c.write)
		c.write = w
		d := make([]uint64, len(c.dep), words)
		copy(d, c.dep)
		c.dep = d
	}
}

// Slice returns a read-only view of accesses [lo, hi). The va/gap columns
// alias the receiver's arrays; the flag bitsets are shared whole via the
// view's bit offset.
func (c *Columns) Slice(lo, hi int) Columns {
	return Columns{
		va:    c.va[lo:hi],
		gap:   c.gap[lo:hi],
		write: c.write,
		dep:   c.dep,
		off:   c.off + lo,
	}
}

// Rows materializes the whole column set as row records (a convenience for
// tests and tools; replay paths iterate the columns directly).
func (c *Columns) Rows() []Access {
	out := make([]Access, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}
