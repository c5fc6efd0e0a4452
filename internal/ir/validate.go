package ir

import "fmt"

// Validate checks structural well-formedness of a module:
//
//   - every function has at least one block; the entry block is first
//   - every block ends in exactly one terminator, with no terminators inside
//   - value names are unique per function
//   - instruction operands that are themselves instructions are either
//     allocas in the entry block (function-scoped, like LLVM) or defined
//     earlier in the same block (the IR has no phis, so cross-block dataflow
//     must go through allocas)
//   - types line up: loads/stores/geps take pointers, bin operands match the
//     result type, conversions change width in the right direction
//   - alignments are powers of two; alloca sizes are positive
//   - branch targets belong to the same function; map references are declared
func Validate(m *Module) error {
	for _, f := range m.Funcs {
		if err := validateFunc(m, f); err != nil {
			return fmt.Errorf("ir: func %s: %w", f.Name, err)
		}
	}
	return nil
}

func validateFunc(m *Module, f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	nInstrs := f.NumInstrs()
	names := make(map[string]bool, len(f.Params)+nInstrs)
	for _, p := range f.Params {
		if names[p.Name] {
			return fmt.Errorf("duplicate name %%%s", p.Name)
		}
		names[p.Name] = true
	}
	blockSet := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	// defSite is where each instruction operand may be used: -1 for a
	// function-scoped value (an entry-block alloca), otherwise 1 + the index
	// of the block defining it, entered once the walk has passed the
	// definition. Parameters are never instruction operands, so they need
	// no entry.
	defSite := make(map[*Instr]int, nInstrs)
	for _, in := range f.Entry().Instrs {
		if in.Op == OpAlloca {
			defSite[in] = -1
		}
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.HasResult() {
				if in.Name == "" {
					return fmt.Errorf("block %s: unnamed result at %d", b.Name, i)
				}
				if names[in.Name] {
					return fmt.Errorf("duplicate name %%%s", in.Name)
				}
				names[in.Name] = true
			}
			if in.IsTerminator() != (i == len(b.Instrs)-1) {
				return fmt.Errorf("block %s: terminator misplaced at instruction %d (%s)", b.Name, i, FormatInstr(in))
			}
			for _, a := range in.Args {
				ai, ok := a.(*Instr)
				if !ok {
					continue
				}
				if site, ok := defSite[ai]; !ok || (site != -1 && site != 1+bi) {
					return fmt.Errorf("block %s: %s uses %%%s which is not defined earlier in the block (cross-block values must go through allocas)", b.Name, FormatInstr(in), ai.Name)
				}
			}
			if err := checkInstr(m, f, blockSet, in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Name, FormatInstr(in), err)
			}
			if in.HasResult() && defSite[in] != -1 {
				defSite[in] = 1 + bi
			}
		}
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// wantArgs is each fixed-arity op's operand count (calls are variadic).
var wantArgs = map[Op]int{
	OpAlloca: 0, OpLoad: 1, OpStore: 2, OpBin: 2, OpICmp: 2, OpGEP: 2,
	OpZExt: 1, OpSExt: 1, OpTrunc: 1, OpBswap: 1, OpAtomicRMW: 2, OpMapPtr: 0,
	OpBr: 0, OpCondBr: 1, OpRet: 1,
}

func checkInstr(m *Module, f *Function, blocks map[*Block]bool, in *Instr) error {
	if n, ok := wantArgs[in.Op]; ok && in.Op != OpCall && len(in.Args) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
	}
	switch in.Op {
	case OpAlloca:
		if in.Size <= 0 || in.Size > 512 {
			return fmt.Errorf("alloca size %d out of range", in.Size)
		}
		if !powerOfTwo(in.Align) {
			return fmt.Errorf("alignment %d is not a power of two", in.Align)
		}
	case OpLoad:
		if in.Args[0].Type() != Ptr {
			return fmt.Errorf("load from non-pointer")
		}
		if !powerOfTwo(in.Align) {
			return fmt.Errorf("alignment %d is not a power of two", in.Align)
		}
	case OpStore:
		if in.Args[0].Type() != Ptr {
			return fmt.Errorf("store to non-pointer")
		}
		if !powerOfTwo(in.Align) {
			return fmt.Errorf("alignment %d is not a power of two", in.Align)
		}
	case OpBin:
		if !in.Ty.IsInt() {
			return fmt.Errorf("bin on non-integer type")
		}
		for _, a := range in.Args {
			if _, isConst := a.(*Const); !isConst && a.Type() != in.Ty && a.Type() != Ptr {
				return fmt.Errorf("operand type %s does not match %s", a.Type(), in.Ty)
			}
		}
	case OpICmp:
		// Pointer comparisons (packet bounds checks) are allowed.
	case OpGEP:
		if in.Args[0].Type() != Ptr {
			return fmt.Errorf("gep base is not a pointer")
		}
		if !in.Args[1].Type().IsInt() {
			return fmt.Errorf("gep offset is not an integer")
		}
	case OpZExt, OpSExt:
		if src, ok := in.Args[0].(*Const); ok && src.Ty.Bytes() > in.Ty.Bytes() {
			return fmt.Errorf("extension narrows")
		}
		if ai, ok := in.Args[0].(*Instr); ok && ai.Type().Bytes() > in.Ty.Bytes() {
			return fmt.Errorf("extension narrows %s to %s", ai.Type(), in.Ty)
		}
	case OpTrunc:
		if ai, ok := in.Args[0].(*Instr); ok && ai.Type().Bytes() < in.Ty.Bytes() {
			return fmt.Errorf("truncation widens %s to %s", ai.Type(), in.Ty)
		}
	case OpBswap:
		if in.Ty.Bytes() < 2 || !in.Ty.IsInt() {
			return fmt.Errorf("bswap width must be i16/i32/i64")
		}
	case OpAtomicRMW:
		switch in.Bin {
		case Add, And, Or, Xor:
		default:
			return fmt.Errorf("atomicrmw does not support %s", in.Bin)
		}
		if in.Ty != I32 && in.Ty != I64 {
			return fmt.Errorf("atomicrmw width must be i32 or i64")
		}
		if in.Args[0].Type() != Ptr {
			return fmt.Errorf("atomicrmw on non-pointer")
		}
	case OpMapPtr:
		if in.Map == nil || m.Map(in.Map.Name) == nil {
			return fmt.Errorf("reference to undeclared map")
		}
	case OpBr:
		if len(in.Blocks) != 1 || !blocks[in.Blocks[0]] {
			return fmt.Errorf("branch target outside function")
		}
	case OpCondBr:
		if len(in.Blocks) != 2 || !blocks[in.Blocks[0]] || !blocks[in.Blocks[1]] {
			return fmt.Errorf("branch target outside function")
		}
	case OpCall:
		if in.Helper < 0 {
			return fmt.Errorf("negative helper number")
		}
		if len(in.Args) > 5 {
			return fmt.Errorf("helper calls take at most 5 arguments")
		}
	case OpCallLocal:
		if in.Target == "" {
			return fmt.Errorf("call_local without a target")
		}
		if m.Func(in.Target) == nil {
			return fmt.Errorf("call_local to undefined function %q", in.Target)
		}
		callee := m.Func(in.Target)
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("call_local to %s passes %d args, callee takes %d",
				in.Target, len(in.Args), len(callee.Params))
		}
	}
	return nil
}
