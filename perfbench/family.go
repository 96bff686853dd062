package main

import (
	"math/rand"

	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// The batched family loop's module-level set-up (hoisting main's
// integer constants into entry arguments, and drawing each member's
// argument vector) has no public entry point in difftest. The traced
// run repeats it here so that every layer call of a family is a public
// one; the verdict-digest check proves the copy equals the engine.

// familyMaxSteps and maxFamilyParams mirror the family engine's limits.
const (
	familyMaxSteps  = 2_000_000
	maxFamilyParams = 8
)

type famParam struct {
	width uint
	orig  int64
}

// parameterize clones m and hoists up to maxFamilyParams integer
// arith.constant ops of main's entry block into entry arguments.
func parameterize(m *ir.Module) (*ir.Module, []famParam) {
	pm := m.Clone()
	f := pm.Func("main")
	if f == nil || len(f.Regions) == 0 {
		return pm, nil
	}
	entry := f.Regions[0].Entry()
	if entry == nil || len(entry.Args) != 0 {
		return pm, nil
	}
	var params []famParam
	kept := entry.Ops[:0]
	for _, op := range entry.Ops {
		if len(params) < maxFamilyParams && op.Name == "arith.constant" &&
			len(op.Results) == 1 && len(op.Regions) == 0 {
			if it, ok := op.Results[0].Type.(ir.IntegerType); ok {
				if va, ok := op.Attrs.Get("value").(ir.IntegerAttr); ok {
					entry.Args = append(entry.Args, op.Results[0])
					params = append(params, famParam{width: it.Width, orig: va.Value})
					continue
				}
			}
		}
		kept = append(kept, op)
	}
	entry.Ops = kept
	if len(params) == 0 {
		return pm, nil
	}
	ft, err := ir.FuncType(f)
	if err != nil {
		return m.Clone(), nil
	}
	ins := append([]ir.Type(nil), ft.Inputs...)
	for _, a := range entry.Args {
		ins = append(ins, a.Type)
	}
	f.Attrs.Set("function_type", ir.TypeAttrOf(ir.FuncOf(ins, ft.Results)))
	return pm, params
}

// memberArgs is member's argument vector: the original constants for
// member 0, values drawn from the member's seed for the rest.
func memberArgs(params []famParam, seed int64, member int) []rtval.Value {
	if len(params) == 0 {
		return nil
	}
	args := make([]rtval.Value, len(params))
	if member == 0 {
		for i, p := range params {
			args[i] = rtval.Box(rtval.NewInt(p.width, p.orig))
		}
		return args
	}
	rng := rand.New(rand.NewSource(seed))
	for i, p := range params {
		var v int64
		switch {
		case p.width == 1:
			v = int64(rng.Intn(2))
		case rng.Intn(2) == 0:
			v = rng.Int63n(33) - 16
		default:
			v = int64(rng.Uint64())
		}
		args[i] = rtval.Box(rtval.NewInt(p.width, v))
	}
	return args
}
