package ir

import (
	"strings"
	"testing"
)

// vmod builds a minimal finalized one-function module around the
// instructions `build` emits, for verifier error-path tests.
func vmod(build func(m *Module, b *Builder)) *Module {
	m := NewModule("v")
	f := m.AddFunction("main", []Type{I64}, Void)
	b := NewBuilder(m, f)
	build(m, b)
	if f.Blocks[len(f.Blocks)-1].Terminator() == nil {
		b.RetVoid()
	}
	m.Finalize()
	return m
}

// TestVerifyErrorPaths drives every verifier diagnostic not already
// exercised by the broken-module tests, checking both that the module is
// rejected and that the message carries the expected diagnosis.
func TestVerifyErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		mod  func() *Module
		want string // substring of the error message
	}{
		{"func-no-blocks", func() *Module {
			m := vmod(func(m *Module, b *Builder) {})
			m.Funcs[0].Blocks = nil
			return m
		}, "no blocks"},

		{"numregs-below-params", func() *Module {
			m := vmod(func(m *Module, b *Builder) {})
			m.Funcs[0].NumRegs = 0
			return m
		}, "NumRegs"},

		{"empty-block", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				dead := b.NewBlock("dead")
				_ = dead
			})
			return m
		}, "empty block"},

		{"terminator-mid-block", func() *Module {
			return vmod(func(m *Module, b *Builder) {
				b.RetVoid()
				b.Block().Instrs = append(b.Block().Instrs,
					&Instr{Op: OpCallB, BFunc: BuiltinEmitI, Type: Void, Dst: -1, Args: []Operand{ConstI(1)}})
			})
		}, "not at block end"},

		{"dst-out-of-range", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.Bin(OpAdd, ConstI(1), ConstI(2))
			})
			m.Instrs[0].Dst = 99
			return m
		}, "dst register"},

		{"typed-result-no-dst", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.Bin(OpAdd, ConstI(1), ConstI(2))
			})
			m.Instrs[0].Dst = -1
			return m
		}, "without destination"},

		{"missing-operand", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.Bin(OpAdd, ConstI(1), ConstI(2))
			})
			m.Instrs[0].Args[1] = Operand{}
			return m
		}, "missing operand"},

		{"itof-bad-result", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.IToF(ConstI(1))
			})
			m.Instrs[0].Type = I64
			return m
		}, "itof"},

		{"ftoi-bad-result", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.FToI(ConstF(1))
			})
			m.Instrs[0].Type = F64
			return m
		}, "ftoi"},

		{"alloca-bad-result", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.Alloca(ConstI(1))
			})
			m.Instrs[0].Type = I64
			return m
		}, "alloca"},

		{"load-void-result", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				p := b.Alloca(ConstI(1))
				b.Load(I64, p)
			})
			m.Instrs[1].Type = Void
			m.Instrs[1].Dst = -1
			return m
		}, "load"},

		{"store-arity", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				p := b.Alloca(ConstI(1))
				b.Store(ConstI(1), p)
			})
			m.Instrs[1].Args = m.Instrs[1].Args[:1]
			return m
		}, "operands"},

		{"gep-bad-result", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				p := b.Alloca(ConstI(4))
				b.GEP(p, ConstI(1))
			})
			m.Instrs[1].Type = I64
			return m
		}, "gep"},

		{"br-successor-count", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				next := b.NewBlock("next")
				b.Br(next)
				b.SetBlock(next)
				b.RetVoid()
			})
			m.Instrs[0].Succs = nil
			return m
		}, "br needs 1 successor"},

		{"condbr-successor-count", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				then := b.NewBlock("then")
				els := b.NewBlock("else")
				c := b.ICmp(PredLT, Reg(0, I64), ConstI(1))
				b.CondBr(c, then, els)
				b.SetBlock(then)
				b.RetVoid()
				b.SetBlock(els)
				b.RetVoid()
			})
			for _, in := range m.Instrs {
				if in.Op == OpCondBr {
					in.Succs = in.Succs[:1]
				}
			}
			return m
		}, "condbr needs 2 successors"},

		{"nonvoid-ret-count", func() *Module {
			m := NewModule("v")
			f := m.AddFunction("main", nil, I64)
			b := NewBuilder(m, f)
			b.Ret(ConstI(1))
			m.Finalize()
			m.Instrs[0].Args = nil
			return m
		}, "exactly one value"},

		{"call-arg-count", func() *Module {
			m := NewModule("v")
			callee := m.AddFunction("f", []Type{I64, I64}, Void)
			cb := NewBuilder(m, callee)
			cb.RetVoid()
			f := m.AddFunction("main", nil, Void)
			b := NewBuilder(m, f)
			b.Call(0, Void, ConstI(1), ConstI(2))
			b.RetVoid()
			m.Finalize()
			for _, in := range m.Instrs {
				if in.Op == OpCall {
					in.Args = in.Args[:1]
				}
			}
			return m
		}, "want 2 args"},

		{"call-result-type", func() *Module {
			m := NewModule("v")
			callee := m.AddFunction("f", nil, I64)
			cb := NewBuilder(m, callee)
			cb.Ret(ConstI(1))
			f := m.AddFunction("main", nil, Void)
			b := NewBuilder(m, f)
			b.Call(0, I64, nil...)
			b.RetVoid()
			m.Finalize()
			for _, in := range m.Instrs {
				if in.Op == OpCall {
					in.Type = F64
				}
			}
			return m
		}, "result type"},

		{"builtin-out-of-range", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.CallB(BuiltinEmitI, ConstI(1))
			})
			m.Instrs[0].BFunc = Builtin(200)
			return m
		}, "builtin 200 out of range"},

		{"builtin-arity", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.CallB(BuiltinEmitI, ConstI(1))
			})
			m.Instrs[0].Args = nil
			return m
		}, "args"},

		{"select-arity", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				c := b.ICmp(PredLT, Reg(0, I64), ConstI(1))
				b.Select(c, ConstI(1), ConstI(2))
			})
			for _, in := range m.Instrs {
				if in.Op == OpSelect {
					in.Args = in.Args[:2]
				}
			}
			return m
		}, "operands"},

		{"join-arity", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.Join()
			})
			m.Instrs[0].Args = []Operand{ConstI(1)}
			return m
		}, "operands"},

		{"detect-arity", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				c := b.ICmp(PredLT, Reg(0, I64), ConstI(1))
				b.Detect(c)
			})
			for _, in := range m.Instrs {
				if in.Op == OpDetect {
					in.Args = nil
				}
			}
			return m
		}, "operands"},

		{"phi-mid-block", func() *Module {
			return vmod(func(m *Module, b *Builder) {
				entry := b.Block()
				next := b.NewBlock("next")
				b.Br(next)
				b.SetBlock(next)
				b.Phi(I64, []Operand{ConstI(1)}, []*Block{entry})
				b.Bin(OpAdd, ConstI(1), ConstI(2))
				b.Phi(I64, []Operand{ConstI(2)}, []*Block{entry})
			})
		}, "bb1 pos 2 [3] phi: outside the block's leading phi group (1 phis)"},

		{"unknown-opcode", func() *Module {
			m := vmod(func(m *Module, b *Builder) {
				b.CallB(BuiltinEmitI, ConstI(1))
			})
			m.Instrs[0].Op = Op(200)
			m.Instrs[0].Type = Void
			m.Instrs[0].Dst = -1
			return m
		}, "unknown opcode"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.mod())
			if err == nil {
				t.Fatalf("Verify accepted a %s module", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVerifyErrorCoordinates pins the diagnostic format: instruction
// errors name the function, block, position within the block, and
// instruction ID, so a failure is navigable without a debugger.
func TestVerifyErrorCoordinates(t *testing.T) {
	m := vmod(func(m *Module, b *Builder) {
		b.CallB(BuiltinEmitI, ConstI(1))
		b.Bin(OpAdd, ConstI(1), ConstI(2))
	})
	// Break the add (block 0, position 1).
	m.Instrs[1].Args = m.Instrs[1].Args[:1]
	err := Verify(m)
	if err == nil {
		t.Fatal("Verify accepted broken module")
	}
	for _, part := range []string{"func main", "bb0", "pos 1", "[1]", "add"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q lacks coordinate %q", err, part)
		}
	}
}

// TestVerifyStrictFallsBackToVerify documents VerifyStrict's contract in
// a binary that does not link the analysis package: with no registered
// dominance checker it must behave exactly like Verify.
func TestVerifyStrictFallsBackToVerify(t *testing.T) {
	prev := strictSSA
	strictSSA = nil
	defer func() { strictSSA = prev }()

	good := vmod(func(m *Module, b *Builder) {
		b.CallB(BuiltinEmitI, ConstI(1))
	})
	if err := VerifyStrict(good); err != nil {
		t.Fatalf("VerifyStrict without checker rejected a valid module: %v", err)
	}
	bad := vmod(func(m *Module, b *Builder) {
		b.Bin(OpAdd, ConstI(1), ConstI(2))
	})
	bad.Instrs[0].Args = bad.Instrs[0].Args[:1]
	if err := VerifyStrict(bad); err == nil {
		t.Fatal("VerifyStrict without checker must still run Verify")
	}

	// A registered checker is consulted after structural checks pass.
	called := false
	strictSSA = func(*Module) error { called = true; return nil }
	if err := VerifyStrict(good); err != nil || !called {
		t.Fatalf("VerifyStrict did not consult the registered checker (err %v, called %v)", err, called)
	}
}
