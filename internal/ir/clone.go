package ir

// Clone deep-copies a module: new instructions, blocks, functions and maps,
// with all internal references (operands, branch targets, map refs)
// repointed into the copy. Optimization pipelines clone before mutating so
// callers can compile the same module under different option sets.
//
// Each function's instructions, operand lists, constants, blocks and branch
// target lists are allocated as one slab each, so a clone costs a fixed
// number of allocations per function rather than several per instruction.
// Every sub-slice is capped at its own length: a pass that appends to one
// instruction's operands or one block's instructions reallocates instead of
// overwriting its neighbour's.
func Clone(m *Module) *Module {
	out := &Module{Name: m.Name}
	var mapOf map[*MapDef]*MapDef
	if len(m.Maps) > 0 {
		defs := make([]MapDef, len(m.Maps))
		out.Maps = make([]*MapDef, len(m.Maps))
		mapOf = make(map[*MapDef]*MapDef, len(m.Maps))
		for i, md := range m.Maps {
			defs[i] = *md
			out.Maps[i] = &defs[i]
			mapOf[md] = &defs[i]
		}
	}
	if len(m.Funcs) > 0 {
		out.Funcs = make([]*Function, len(m.Funcs))
		for i, f := range m.Funcs {
			out.Funcs[i] = cloneFunc(f, mapOf)
		}
	}
	return out
}

func cloneFunc(f *Function, mapOf map[*MapDef]*MapDef) *Function {
	nf := &Function{Name: f.Name}

	// Size the slabs and number the originals: an operand or branch target
	// resolves to its copy's slab index, whether or not the copy is filled
	// in yet.
	nInstrs, nArgs, nConsts, nTargets := 0, 0, 0, 0
	blockOf := make(map[*Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockOf[b] = int32(i)
		nInstrs += len(b.Instrs)
	}
	instrOf := make(map[*Instr]int32, nInstrs)
	idx := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			instrOf[in] = idx
			idx++
			nArgs += len(in.Args)
			nTargets += len(in.Blocks)
			for _, a := range in.Args {
				if _, ok := a.(*Const); ok {
					nConsts++
				}
			}
		}
	}

	if len(f.Params) > 0 {
		params := make([]Param, len(f.Params))
		nf.Params = make([]*Param, len(f.Params))
		for i, p := range f.Params {
			params[i] = Param{Name: p.Name, Ty: p.Ty}
			nf.Params[i] = &params[i]
		}
	}
	// paramOf is a linear search: eBPF functions take at most five
	// parameters.
	paramOf := func(p *Param) Value {
		for i := len(f.Params) - 1; i >= 0; i-- {
			if f.Params[i] == p {
				return nf.Params[i]
			}
		}
		return nil
	}

	blocks := make([]Block, len(f.Blocks))
	instrs := make([]Instr, nInstrs)
	ptrs := make([]*Instr, nInstrs)
	args := make([]Value, nArgs)
	consts := make([]Const, nConsts)
	targets := make([]*Block, nTargets)
	if len(f.Blocks) > 0 {
		nf.Blocks = make([]*Block, len(f.Blocks))
	}
	k := 0 // next instruction slot
	for bi, b := range f.Blocks {
		nb := &blocks[bi]
		nb.Name, nb.Fn = b.Name, nf
		nf.Blocks[bi] = nb
		if len(b.Instrs) > 0 {
			nb.Instrs = ptrs[k : k+len(b.Instrs) : k+len(b.Instrs)]
		}
		for j, in := range b.Instrs {
			ni := &instrs[k]
			k++
			*ni = *in
			ni.Parent, ni.Args, ni.Blocks = nb, nil, nil
			if in.Map != nil {
				if c := mapOf[in.Map]; c != nil {
					ni.Map = c
				}
			}
			if n := len(in.Args); n > 0 {
				ni.Args, args = args[:n:n], args[n:]
				for ai, a := range in.Args {
					var v Value // an operand the function does not define
					switch a := a.(type) {
					case *Const:
						consts[0] = *a
						v, consts = &consts[0], consts[1:]
					case *Instr:
						if idx, ok := instrOf[a]; ok {
							v = &instrs[idx]
						}
					case *Param:
						v = paramOf(a)
					}
					ni.Args[ai] = v
				}
			}
			if n := len(in.Blocks); n > 0 {
				ni.Blocks, targets = targets[:n:n], targets[n:]
				for ti, t := range in.Blocks {
					if idx, ok := blockOf[t]; ok {
						ni.Blocks[ti] = &blocks[idx]
					}
				}
			}
			nb.Instrs[j] = ni
		}
	}
	return nf
}
