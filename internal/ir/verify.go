package ir

import "fmt"

// Verify checks structural well-formedness of the module: every block ends
// in exactly one terminator, operand registers are within the function's
// register file, branch targets and callee/global/builtin indices are
// valid, operand counts match opcodes, result types are sane, and every
// phi belongs to its block's leading phi group (Block.LeadingPhis).
//
// It returns the first problem found, or nil. Verify requires Finalize to
// have been called (it relies on instruction IDs for error messages).
//
// Verify is purely local: it never reasons about dominance. For the
// stronger SSA-dominance check see VerifyStrict.
func Verify(m *Module) error {
	if m.Entry() < 0 {
		return fmt.Errorf("module %s: no entry function %q", m.Name, "main")
	}
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("func %s: no blocks", f.Name)
		}
		if f.NumRegs < len(f.Params) {
			return fmt.Errorf("func %s: NumRegs %d < params %d", f.Name, f.NumRegs, len(f.Params))
		}
		for _, b := range f.Blocks {
			if err := verifyBlock(m, f, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func verifyBlock(m *Module, f *Function, b *Block) error {
	if len(b.Instrs) == 0 {
		return fmt.Errorf("func %s bb%d: empty block", f.Name, b.Index)
	}
	for i, in := range b.Instrs {
		last := i == len(b.Instrs)-1
		if in.Op.IsTerminator() != last {
			if last {
				return fmt.Errorf("func %s bb%d pos %d: missing terminator (ends with %s)", f.Name, b.Index, i, in.Op)
			}
			return fmt.Errorf("func %s bb%d pos %d: terminator %s not at block end", f.Name, b.Index, i, in.Op)
		}
		if err := verifyInstr(m, f, b, i, in); err != nil {
			return err
		}
	}
	return nil
}

func verifyInstr(m *Module, f *Function, b *Block, pos int, in *Instr) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("func %s bb%d pos %d [%d] %s: %s", f.Name, b.Index, pos, in.ID, in.Op, fmt.Sprintf(format, args...))
	}
	// Registers in range.
	if in.Dst >= f.NumRegs {
		return fail("dst register %d out of range (NumRegs=%d)", in.Dst, f.NumRegs)
	}
	// HasResult() is Dst >= 0 && Type != Void, so testing it here would be
	// vacuous; the broken state is a typed instruction lacking a register.
	if in.Type != Void && in.Dst < 0 {
		return fail("typed result without destination register")
	}
	for _, a := range in.Args {
		if a.Kind == OperReg && (a.Reg < 0 || a.Reg >= f.NumRegs) {
			return fail("operand register %d out of range (NumRegs=%d)", a.Reg, f.NumRegs)
		}
		if a.Kind == OperNone {
			return fail("missing operand")
		}
	}
	// Successor blocks valid.
	for _, s := range in.Succs {
		if s < 0 || s >= len(f.Blocks) {
			return fail("successor bb%d out of range", s)
		}
	}

	argc := func(n int) error {
		if len(in.Args) != n {
			return fail("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}

	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if err := argc(2); err != nil {
			return err
		}
		if in.Type != I64 {
			return fail("integer op result must be i64, got %s", in.Type)
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := argc(2); err != nil {
			return err
		}
		if in.Type != F64 {
			return fail("float op result must be f64, got %s", in.Type)
		}
	case OpICmp, OpFCmp:
		if err := argc(2); err != nil {
			return err
		}
		if in.Type != I1 {
			return fail("comparison result must be i1, got %s", in.Type)
		}
	case OpIToF:
		if err := argc(1); err != nil {
			return err
		}
		if in.Type != F64 {
			return fail("itof result must be f64")
		}
	case OpFToI:
		if err := argc(1); err != nil {
			return err
		}
		if in.Type != I64 {
			return fail("ftoi result must be i64")
		}
	case OpAlloca:
		if err := argc(1); err != nil {
			return err
		}
		if in.Type != Ptr {
			return fail("alloca result must be ptr")
		}
	case OpLoad:
		if err := argc(1); err != nil {
			return err
		}
		if in.Type == Void {
			return fail("load must have a result type")
		}
	case OpStore:
		if err := argc(2); err != nil {
			return err
		}
	case OpGEP:
		if err := argc(2); err != nil {
			return err
		}
		if in.Type != Ptr {
			return fail("gep result must be ptr")
		}
	case OpGlobalAddr, OpArrayLen:
		if in.Global < 0 || in.Global >= len(m.Globals) {
			return fail("global index %d out of range", in.Global)
		}
	case OpBr:
		if len(in.Succs) != 1 {
			return fail("br needs 1 successor, have %d", len(in.Succs))
		}
	case OpCondBr:
		if err := argc(1); err != nil {
			return err
		}
		if len(in.Succs) != 2 {
			return fail("condbr needs 2 successors, have %d", len(in.Succs))
		}
		if in.Args[0].Type != I1 {
			return fail("condbr condition must be i1")
		}
	case OpRet:
		if f.Ret == Void && len(in.Args) != 0 {
			return fail("void function returns a value")
		}
		if f.Ret != Void && len(in.Args) != 1 {
			return fail("non-void function must return exactly one value")
		}
	case OpPhi:
		if lead := b.LeadingPhis(); pos >= lead {
			return fail("outside the block's leading phi group (%d phis)", lead)
		}
		if len(in.Args) == 0 || len(in.Args) != len(in.Succs) {
			return fail("phi incoming values (%d) and blocks (%d) mismatch", len(in.Args), len(in.Succs))
		}
	case OpCall, OpSpawn:
		if in.Callee < 0 || in.Callee >= len(m.Funcs) {
			return fail("callee fn%d out of range", in.Callee)
		}
		callee := m.Funcs[in.Callee]
		if len(in.Args) != len(callee.Params) {
			return fail("call to %s: want %d args, have %d", callee.Name, len(callee.Params), len(in.Args))
		}
		if in.Op == OpCall && in.Type != callee.Ret {
			return fail("call result type %s != callee return %s", in.Type, callee.Ret)
		}
	case OpCallB:
		if int(in.BFunc) >= NumBuiltins() {
			return fail("builtin %d out of range", in.BFunc)
		}
		sig := in.BFunc.Sig()
		if len(in.Args) != len(sig.Params) {
			return fail("builtin %s: want %d args, have %d", sig.Name, len(sig.Params), len(in.Args))
		}
		if in.Type != sig.Ret {
			return fail("builtin %s result type %s != %s", sig.Name, in.Type, sig.Ret)
		}
	case OpSelect:
		if err := argc(3); err != nil {
			return err
		}
		if in.Args[0].Type != I1 {
			return fail("select condition must be i1")
		}
	case OpJoin:
		if err := argc(0); err != nil {
			return err
		}
	case OpDetect:
		if err := argc(1); err != nil {
			return err
		}
		if in.Args[0].Type != I1 {
			return fail("detect operand must be i1")
		}
	default:
		return fail("unknown opcode")
	}
	return nil
}

// strictSSA is the pluggable dominance checker. The analysis package
// registers its SSA verifier here from an init function, keeping the
// dependency edge pointing from analysis to ir (ir stays leaf-level).
var strictSSA func(*Module) error

// RegisterStrictSSA installs the dominance checker used by VerifyStrict.
// It is called once, from package analysis's init; later registrations
// overwrite earlier ones.
func RegisterStrictSSA(f func(*Module) error) { strictSSA = f }

// VerifyStrict runs Verify and then, when a dominance checker has been
// registered (importing repro/internal/analysis registers one), the
// strict SSA-dominance check: single assignment per register and every
// use dominated by its definition. Without a registered checker it is
// identical to Verify.
func VerifyStrict(m *Module) error {
	if err := Verify(m); err != nil {
		return err
	}
	if strictSSA != nil {
		return strictSSA(m)
	}
	return nil
}
