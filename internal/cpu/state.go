package cpu

import "mosaic/internal/mem"

// Space returns the address space the machine replays against.
func (m *Machine) Space() *mem.AddressSpace { return m.space }
