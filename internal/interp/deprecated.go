package interp

import (
	"time"

	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// CompiledProgram binds a module to the registry it runs against.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
type CompiledProgram struct {
	registry *Registry
	module   *ir.Module
}

// Compile binds m to r and does no other work.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
func Compile(r *Registry, m *ir.Module) *CompiledProgram { return &CompiledProgram{r, m} }

// RunProgramArgs runs p's module over p's registry exactly as RunArgs.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
func (in *Interpreter) RunProgramArgs(p *CompiledProgram, entry string, args []rtval.Value) (*Result, error) {
	run := *in
	run.registry = p.registry
	return run.RunArgs(p.module, entry, args)
}

// CacheStats is a ProgramCache's accounting; it always reads zero.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	CompileTime             time.Duration
}

// ProgramCache caches nothing.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
type ProgramCache struct{}

// StatsDetail reports zeros.
//
// Deprecated: kept so perfbench builds; remove in the next benchmark change.
func (*ProgramCache) StatsDetail() CacheStats { return CacheStats{} }
