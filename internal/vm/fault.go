package vm

import (
	"errors"
	"fmt"
)

// FaultKind classifies how a program faulted at runtime. The lifecycle
// watchdog (internal/lifecycle) keys its quarantine decisions off these
// kinds instead of matching error strings.
type FaultKind string

const (
	// FaultStepLimit: the program exceeded Config.StepLimit (runaway loop).
	FaultStepLimit FaultKind = "step-limit"
	// FaultBadPC: the program counter left the instruction stream, or a
	// branch resolved to no instruction boundary.
	FaultBadPC FaultKind = "bad-pc"
	// FaultBadMemory: a load, store or helper memory argument fell outside
	// every mapped region (stack, ctx, packet, kmem, map values).
	FaultBadMemory FaultKind = "bad-memory"
	// FaultBadInstruction: an undecodable or unsupported instruction was
	// executed (legacy ld, unknown ALU/atomic op, unknown class).
	FaultBadInstruction FaultKind = "bad-instruction"
	// FaultHelper: a helper call failed (unknown helper id, bad map handle,
	// unsupported helper for this machine).
	FaultHelper FaultKind = "helper"
)

// RuntimeError is the typed error Machine.Run returns when a program faults.
// PC is the element index of the faulting instruction (as used by the
// disassembler), or -1 when the fault cannot be attributed to one.
type RuntimeError struct {
	Kind   FaultKind
	PC     int
	Detail string
}

func (e *RuntimeError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("vm: %s: %s", e.Kind, e.Detail)
	}
	return fmt.Sprintf("vm: %s at insn %d: %s", e.Kind, e.PC, e.Detail)
}

// AsRuntimeError unwraps err to the machine's typed runtime error, if any.
func AsRuntimeError(err error) (*RuntimeError, bool) {
	// An unwrapped error, the packet path's case, needs no errors.As (whose
	// target escapes to the heap).
	if re, ok := err.(*RuntimeError); ok {
		return re, true
	}
	var re *RuntimeError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// faultf builds a RuntimeError at a known instruction.
func faultf(kind FaultKind, pc int, format string, args ...any) *RuntimeError {
	return &RuntimeError{Kind: kind, PC: pc, Detail: fmt.Sprintf(format, args...)}
}

// wrapFault attributes an error bubbling out of a memory or helper path
// to the executing instruction: an existing RuntimeError keeps its kind and
// gains the pc (and context prefix); anything else is adapted into one with
// the given default kind.
func wrapFault(err error, kind FaultKind, pc int, context string) *RuntimeError {
	re, ok := AsRuntimeError(err)
	if !ok {
		re = &RuntimeError{Kind: kind, PC: -1, Detail: err.Error()}
	}
	if re.PC < 0 {
		re.PC = pc
	}
	if context != "" {
		re.Detail = context + ": " + re.Detail
	}
	return re
}
