package compiler

import (
	"fmt"

	"ratte/internal/ir"
)

// runSCFToCF lowers structured control flow to branches between blocks,
// mirroring MLIR's convert-scf-to-cf: scf.if becomes a conditional
// branch diamond, scf.for becomes a header/body/continue loop with
// block arguments carrying the induction variable and loop-carried
// values.
//
// The pass scans the function's blocks in order and splits each block
// around its first scf op, resuming at the block after the split.
func runSCFToCF(m *ir.Module, opts *Options) error {
	for _, f := range funcsOf(m) {
		if err := lowerSCF(f, newNamer(f), newBlockNamer(f), opts); err != nil {
			return err
		}
		// No scf op may survive in a fully lowered function.
		var leftover string
		f.Walk(func(op *ir.Operation) bool {
			if op.Dialect() == "scf" && op.Name != "scf.yield" {
				leftover = op.Name
				return false
			}
			return true
		})
		if leftover != "" {
			return fmt.Errorf("scf op %s not lowered", leftover)
		}
	}
	return nil
}

// lowerSCF rewrites every scf.if/scf.for among the function region's
// top-level block operations, first to last. Lowering an op ends its
// block with a branch and splices the new blocks right after it, so the
// scan resumes at the next block. Operations nested inside an scf
// region surface as top-level ops of the spliced blocks, so one forward
// scan lowers arbitrarily nested structured control flow, outermost
// first.
func lowerSCF(f *ir.Operation, nm *namer, bn *blockNamer, opts *Options) error {
	region := f.Regions[0]
	for bi := 0; bi < len(region.Blocks); bi++ {
		for oi, op := range region.Blocks[bi].Ops {
			var err error
			switch op.Name {
			case "scf.if":
				opts.cover(covSCFToCF, op.Name)
				err = lowerIf(region, bi, oi, nm, bn)
			case "scf.for":
				opts.cover(covSCFToCF, op.Name)
				err = lowerFor(region, bi, oi, nm, bn)
			default:
				continue
			}
			if err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// lowerIf splits block bi of region at the scf.if at index oi:
//
//	^orig:  ...prefix..., cond_br %c, ^then, ^else
//	^then:  <then ops>, br ^cont(yielded...)
//	^else:  <else ops>, br ^cont(yielded...)
//	^cont(%results...): ...suffix...
func lowerIf(region *ir.Region, bi, oi int, nm *namer, bn *blockNamer) error {
	b := region.Blocks[bi]
	op := b.Ops[oi]
	suffix := b.Ops[oi+1:]
	prefix := b.Ops[:oi]

	thenLabel := bn.Fresh("then")
	elseLabel := bn.Fresh("else")
	contLabel := bn.Fresh("cont")

	// Continue block: takes the scf.if results as block arguments.
	contArgs := make([]ir.Value, len(op.Results))
	copy(contArgs, op.Results)
	contBlock := &ir.Block{Label: contLabel, Args: contArgs, Ops: suffix}

	mkBranchBlock := func(label string, r *ir.Region) (*ir.Block, error) {
		entry := r.Entry()
		if entry == nil {
			return nil, fmt.Errorf("scf.if region has no entry block")
		}
		ops := entry.Ops
		term := ops[len(ops)-1]
		if term.Name != "scf.yield" {
			return nil, fmt.Errorf("scf.if region must end in scf.yield, found %s", term.Name)
		}
		br := ir.NewOp("cf.br")
		br.Successors = []ir.Successor{{Block: contLabel, Args: append([]ir.Value(nil), term.Operands...)}}
		return &ir.Block{Label: label, Ops: append(ops[:len(ops)-1:len(ops)-1], br)}, nil
	}

	thenBlock, err := mkBranchBlock(thenLabel, op.Regions[0])
	if err != nil {
		return err
	}
	elseBlock, err := mkBranchBlock(elseLabel, op.Regions[1])
	if err != nil {
		return err
	}

	condBr := ir.NewOp("cf.cond_br")
	condBr.Operands = []ir.Value{op.Operands[0]}
	condBr.Successors = []ir.Successor{{Block: thenLabel}, {Block: elseLabel}}
	b.Ops = append(prefix[:len(prefix):len(prefix)], condBr)

	// Splice the new blocks after the split block.
	rest := append([]*ir.Block{thenBlock, elseBlock, contBlock}, region.Blocks[bi+1:]...)
	region.Blocks = append(region.Blocks[:bi+1:bi+1], rest...)
	return nil
}

// lowerFor splits block bi of region at the scf.for at index oi:
//
//	^orig:    ...prefix..., br ^header(lb, inits...)
//	^header(%iv, %carried...):
//	          %cond = cmpi slt %iv, %ub
//	          cond_br %cond, ^body(%iv, %carried...), ^cont(%carried...)
//	^body(%iv2, %c2...): <body ops>, %next = addi %iv2, %step,
//	          br ^header(%next, yielded...)
//	^cont(%results...): ...suffix...
func lowerFor(region *ir.Region, bi, oi int, nm *namer, bn *blockNamer) error {
	b := region.Blocks[bi]
	op := b.Ops[oi]
	suffix := b.Ops[oi+1:]
	prefix := b.Ops[:oi]

	lb, ub, step := op.Operands[0], op.Operands[1], op.Operands[2]
	inits := op.Operands[3:]

	headerLabel := bn.Fresh("header")
	bodyLabel := bn.Fresh("body")
	contLabel := bn.Fresh("cont")

	entry := op.Regions[0].Entry()
	if entry == nil {
		return fmt.Errorf("scf.for body has no entry block")
	}
	bodyOps := entry.Ops
	term := bodyOps[len(bodyOps)-1]
	if term.Name != "scf.yield" {
		return fmt.Errorf("scf.for body must end in scf.yield, found %s", term.Name)
	}

	// Header block arguments: fresh iv + carried values mirroring the
	// body entry arguments' types.
	hIV := nm.Value(ir.Index)
	hCarried := make([]ir.Value, len(inits))
	for i, init := range inits {
		hCarried[i] = nm.Value(init.Type)
	}

	headerArgs := append([]ir.Value{hIV}, hCarried...)
	cond := nm.Value(ir.I1)
	cmp := ir.NewOp("arith.cmpi")
	cmp.Operands = []ir.Value{hIV, ub}
	cmp.Attrs.Set("predicate", ir.IntAttr(2, ir.I64)) // slt
	cmp.Results = []ir.Value{cond}

	condBr := ir.NewOp("cf.cond_br")
	condBr.Operands = []ir.Value{cond}
	condBr.Successors = []ir.Successor{
		{Block: bodyLabel, Args: append([]ir.Value{hIV}, hCarried...)},
		{Block: contLabel, Args: append([]ir.Value(nil), hCarried...)},
	}
	headerBlock := &ir.Block{Label: headerLabel, Args: headerArgs, Ops: []*ir.Operation{cmp, condBr}}

	// Body block: reuse the region's entry arguments (iv + carried).
	next := nm.Value(ir.Index)
	inc := ir.NewOp("arith.addi")
	inc.Operands = []ir.Value{entry.Args[0], step}
	inc.Results = []ir.Value{next}
	backBr := ir.NewOp("cf.br")
	backBr.Successors = []ir.Successor{{
		Block: headerLabel,
		Args:  append([]ir.Value{next}, term.Operands...),
	}}
	bodyBlock := &ir.Block{
		Label: bodyLabel,
		Args:  entry.Args,
		Ops:   append(bodyOps[:len(bodyOps)-1:len(bodyOps)-1], inc, backBr),
	}

	// Continue block: takes the loop results.
	contArgs := make([]ir.Value, len(op.Results))
	copy(contArgs, op.Results)
	contBlock := &ir.Block{Label: contLabel, Args: contArgs, Ops: suffix}

	enterBr := ir.NewOp("cf.br")
	enterBr.Successors = []ir.Successor{{
		Block: headerLabel,
		Args:  append([]ir.Value{lb}, inits...),
	}}
	b.Ops = append(prefix[:len(prefix):len(prefix)], enterBr)

	rest := append([]*ir.Block{headerBlock, bodyBlock, contBlock}, region.Blocks[bi+1:]...)
	region.Blocks = append(region.Blocks[:bi+1:bi+1], rest...)
	return nil
}
