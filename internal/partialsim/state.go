package partialsim

import "mosaic/internal/mem"

// Space returns the address space the simulator replays against.
func (s *Simulator) Space() *mem.AddressSpace { return s.space }
