package lint

import "strings"

// Config is the per-package policy for the analyzer suite. The zero value
// enables every check but scopes nothing; use DefaultConfig for the repo's
// policy.
type Config struct {
	// DetClockPackages are import-path prefixes (relative to the module
	// root, e.g. "internal/sim") whose code must not read the wall clock or
	// the global math/rand generator. Functions annotated //mosvet:timing
	// are exempt scopes (scheduler ETA, serve metrics).
	DetClockPackages []string

	// LockOrderPackages are import-path prefixes over which lockorder
	// builds the module-wide mutex acquisition graph and rejects cycles,
	// inconsistent pairwise orderings, and blocking operations or
	// transitively-blocking calls made while a lock is held.
	LockOrderPackages []string

	// PhaseOwnerPackages are the packages allowed to construct
	// trace.Phase values and mutate Phase fields. Everywhere else,
	// phasebound flags raw Phase construction and partition arithmetic —
	// phases must come from Phases-validated constructors. Matched by
	// import-path suffix so synthetic test packages scope correctly.
	PhaseOwnerPackages []string

	// Checks restricts which analyzers run; empty means all.
	Checks []string
}

// DefaultConfig is the repo policy mosvet enforces in CI.
func DefaultConfig() *Config {
	return &Config{
		// The simulation core: everything between a trace and a counter
		// must be a pure function of its inputs, or counters stop being
		// bit-identical across pooled/sampled replay.
		DetClockPackages: []string{
			"internal/cpu",
			"internal/partialsim",
			"internal/sim",
			"internal/tlb",
			"internal/cache",
			"internal/walker",
			"internal/mem",
			"internal/trace",
			// Index kernels emit trace accesses from seeded RNGs; a
			// wall-clock or global-rand read would make generated traces —
			// and every phased golden test built on them — irreproducible.
			"internal/dbindex",
			"internal/models",
			"internal/stats",
			// The planner sits on top of the core and must stay seeded:
			// a wall-clock or global-rand read would break planned sweeps'
			// bit-reproducibility.
			"internal/plan",
		},
		// The lock-graph scope: the serving tier's registry and job locks
		// are the only places where two locks can be held at once in
		// production paths. A lock held across blocking I/O turns one slow
		// disk into a stalled /v1/predict for every client.
		LockOrderPackages: []string{
			"internal/serve",
			"internal/serve/registry",
			// Not a lock owner: scoped so that a call into
			// binfmt.WriteFileAtomic under a serving lock is seen to block.
			"internal/binfmt",
		},
		// Only the trace package may build Phase values; everyone else
		// goes through Phases-validated constructors.
		PhaseOwnerPackages: []string{
			"internal/trace",
		},
	}
}

// CheckEnabled reports whether the named analyzer should run.
func (c *Config) CheckEnabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, n := range c.Checks {
		if n == name {
			return true
		}
	}
	return false
}

// pathIn reports whether a module-relative import path falls under any of
// the given prefixes ("internal/serve" covers "internal/serve/registry").
func pathIn(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
