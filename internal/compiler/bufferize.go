package compiler

import (
	"fmt"

	"ratte/internal/ir"
)

// runBufferize rewrites tensor values into memref buffers, mirroring
// one-shot-bufferize (plus func-bufferize): function signatures, block
// arguments and op result types change tensor<…> to memref<…>; tensor
// ops become buffer ops; linalg ops switch to their memref
// (destination-passing) form, keeping their regions for
// convert-linalg-to-loops. Value semantics are preserved by copying:
// every op that would create a new tensor allocates a fresh buffer.
func runBufferize(m *ir.Module, opts *Options) error {
	// Pass 1: rewrite all types (signatures, block args, operands,
	// results) so cross-function references agree.
	m.Walk(func(op *ir.Operation) bool {
		for i, o := range op.Operands {
			op.Operands[i].Type = bufferizeType(o.Type)
		}
		for i, r := range op.Results {
			op.Results[i].Type = bufferizeType(r.Type)
		}
		for si := range op.Successors {
			for ai, a := range op.Successors[si].Args {
				op.Successors[si].Args[ai].Type = bufferizeType(a.Type)
			}
		}
		if ta, ok := op.Attrs.Get("function_type").(ir.TypeAttr); ok {
			op.Attrs.Set("function_type", ir.TypeAttrOf(bufferizeType(ta.Type)))
		}
		for _, r := range op.Regions {
			for _, b := range r.Blocks {
				for i, a := range b.Args {
					b.Args[i].Type = bufferizeType(a.Type)
				}
			}
		}
		return true
	})

	// Pass 2: rewrite tensor/linalg ops into buffer form.
	for _, f := range funcsOf(m) {
		nm := newNamer(f)
		err := forEachBlock(f, func(b *ir.Block) error {
			out := make([]*ir.Operation, 0, len(b.Ops))
			for _, op := range b.Ops {
				var err error
				if out, err = bufferizeOp(out, nm, op, opts); err != nil {
					return err
				}
			}
			b.Ops = out
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// bufferizeType converts tensor types to memref types, recursively
// through function types.
func bufferizeType(t ir.Type) ir.Type {
	switch t := t.(type) {
	case ir.TensorType:
		return ir.MemRefOf(t.Shape, t.Elem)
	case ir.FunctionType:
		ins := make([]ir.Type, len(t.Inputs))
		for i, in := range t.Inputs {
			ins[i] = bufferizeType(in)
		}
		outs := make([]ir.Type, len(t.Results))
		for i, out := range t.Results {
			outs[i] = bufferizeType(out)
		}
		return ir.FuncOf(ins, outs)
	}
	return t
}

// bufEmitter appends buffer-op sequences to ops.
type bufEmitter struct {
	nm  *namer
	ops []*ir.Operation
}

func (e *bufEmitter) indexConst(v int64) ir.Value {
	op, res := buildConst(e.nm, v, ir.Index)
	e.ops = append(e.ops, op)
	return res
}

func (e *bufEmitter) append(op *ir.Operation) { e.ops = append(e.ops, op) }

// alloc emits a memref.alloc producing exactly the given result value.
func (e *bufEmitter) alloc(res ir.Value, extents []ir.Value) {
	op := ir.NewOp("memref.alloc")
	op.Operands = extents
	op.Results = []ir.Value{res}
	e.ops = append(e.ops, op)
}

// dimsOf emits ops yielding the dynamic-extent values of an existing
// memref value, one per dynamic dim of its type.
func (e *bufEmitter) dimsOf(src ir.Value) []ir.Value {
	mt := src.Type.(ir.MemRefType)
	var extents []ir.Value
	for i, d := range mt.Shape {
		if d != ir.DynamicSize {
			continue
		}
		idx := e.indexConst(int64(i))
		op, res := buildOp1(e.nm, "memref.dim", ir.Index, src, idx)
		e.append(op)
		extents = append(extents, res)
	}
	return extents
}

// bufferizeOp appends the buffer form of op to out. The pass owns the
// module it runs on, so a pure rename rewrites op in place.
func bufferizeOp(out []*ir.Operation, nm *namer, op *ir.Operation, opts *Options) ([]*ir.Operation, error) {
	// Recurse into regions first (scf.if/scf.for bodies and the linalg/
	// tensor regions that survive to convert-linalg-to-loops).
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			inner := make([]*ir.Operation, 0, len(b.Ops))
			for _, iop := range b.Ops {
				var err error
				if inner, err = bufferizeOp(inner, nm, iop, opts); err != nil {
					return nil, err
				}
			}
			b.Ops = inner
		}
	}

	e := &bufEmitter{nm: nm, ops: out}
	switch op.Name {
	case "arith.constant":
		dense, ok := op.Attrs.Get("value").(ir.DenseIntAttr)
		if !ok {
			return append(out, op), nil
		}
		opts.cover(covBufferize, op.Name)
		return bufferizeDenseConstant(e, op, dense)

	case "tensor.empty":
		opts.cover(covBufferize, op.Name)
		e.alloc(op.Results[0], op.Operands)
		return e.ops, nil

	case "tensor.extract":
		opts.cover(covBufferize, op.Name)
		op.Name = "memref.load"
		return append(out, op), nil

	case "tensor.dim":
		opts.cover(covBufferize, op.Name)
		op.Name = "memref.dim"
		return append(out, op), nil

	case "tensor.cast":
		opts.cover(covBufferize, op.Name)
		op.Name = "memref.cast"
		return append(out, op), nil

	case "tensor.insert":
		// %res = alloc(like dest); copy(dest, res); store(v, res, idx).
		opts.cover(covBufferize, op.Name)
		dest := op.Operands[1]
		e.alloc(op.Results[0], e.dimsOf(dest))
		cp := ir.NewOp("memref.copy")
		cp.Operands = []ir.Value{dest, op.Results[0]}
		e.append(cp)
		st := ir.NewOp("memref.store")
		st.Operands = append([]ir.Value{op.Operands[0], op.Results[0]}, op.Operands[2:]...)
		e.append(st)
		return e.ops, nil

	case "tensor.generate":
		// Handled by convert-linalg-to-loops (needs loop construction);
		// here it becomes an alloc + a generate-into-buffer marker op.
		opts.cover(covBufferize, op.Name)
		e.alloc(op.Results[0], op.Operands)
		gen := ir.NewOp("ratte.generate_into")
		gen.Operands = []ir.Value{op.Results[0]}
		gen.Regions = op.Regions
		e.append(gen)
		return e.ops, nil

	case "linalg.fill":
		opts.cover(covBufferize, op.Name)
		dest := op.Operands[1]
		e.alloc(op.Results[0], e.dimsOf(dest))
		fill := ir.NewOp("linalg.fill")
		fill.Operands = []ir.Value{op.Operands[0], op.Results[0]}
		fill.Attrs = op.Attrs.Clone()
		e.append(fill)
		return e.ops, nil

	case "linalg.generic":
		opts.cover(covBufferize, op.Name)
		nIns := 0
		if arr, ok := op.Attrs.Get("operand_segment_sizes").(ir.ArrayAttr); ok && len(arr.Elems) == 2 {
			if a, ok := arr.Elems[0].(ir.IntegerAttr); ok {
				nIns = int(a.Value)
			}
		}
		// One fresh output buffer per result, initialised from the
		// tensor-form out operand (accumulators need their contents).
		newOuts := make([]ir.Value, len(op.Results))
		for i, res := range op.Results {
			src := op.Operands[nIns+i]
			e.alloc(res, e.dimsOf(src))
			cp := ir.NewOp("memref.copy")
			cp.Operands = []ir.Value{src, res}
			e.append(cp)
			newOuts[i] = res
		}
		g := ir.NewOp("linalg.generic")
		g.Operands = append(append([]ir.Value(nil), op.Operands[:nIns]...), newOuts...)
		g.Attrs = op.Attrs.Clone()
		g.Regions = op.Regions
		e.append(g)
		return e.ops, nil

	case "vector.print":
		if _, isBuf := op.Operands[0].Type.(ir.MemRefType); isBuf {
			return nil, fmt.Errorf("vector.print of a tensor cannot be bufferized (print scalars instead)")
		}

	case "arith.select":
		if _, isBuf := op.Results[0].Type.(ir.MemRefType); isBuf {
			return nil, fmt.Errorf("arith.select over tensors is not supported by bufferization")
		}
	}
	return append(out, op), nil
}

// bufferizeDenseConstant lowers a dense tensor constant to an alloc
// plus element stores.
func bufferizeDenseConstant(e *bufEmitter, op *ir.Operation, dense ir.DenseIntAttr) ([]*ir.Operation, error) {
	mt, ok := op.Results[0].Type.(ir.MemRefType)
	if !ok {
		return nil, fmt.Errorf("dense constant result was not bufferized")
	}
	if !mt.HasStaticShape() {
		return nil, fmt.Errorf("dense constant with dynamic shape")
	}
	e.alloc(op.Results[0], nil)

	// Cache index constants and element constants.
	idxConst := map[int64]ir.Value{}
	getIdx := func(v int64) ir.Value {
		if c, ok := idxConst[v]; ok {
			return c
		}
		c := e.indexConst(v)
		idxConst[v] = c
		return c
	}
	elemConst := map[int64]ir.Value{}
	getElem := func(v int64) ir.Value {
		if c, ok := elemConst[v]; ok {
			return c
		}
		cop, res := buildConst(e.nm, v, mt.Elem)
		e.append(cop)
		elemConst[v] = res
		return res
	}

	n := mt.NumElements()
	idx := make([]int64, mt.Rank())
	for flat := int64(0); flat < n; flat++ {
		v := dense.Values[0]
		if !dense.Splat {
			v = dense.Values[flat]
		}
		st := ir.NewOp("memref.store")
		st.Operands = []ir.Value{getElem(v), op.Results[0]}
		for _, x := range idx {
			st.Operands = append(st.Operands, getIdx(x))
		}
		e.append(st)
		for i := mt.Rank() - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < mt.Shape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return e.ops, nil
}
