package analysis

import "repro/internal/ir"

// This file derives the ProvablyDetected facts: sites where EVERY
// value-changing perturbation of the result is guaranteed to trip an
// armed detector before it can influence anything else, so a campaign
// may count the site Detected without executing it.
//
// Two shapes are recognized, both anchored on the golden run having
// completed (the campaign always takes a golden run first, and a
// passing OpDetect halts the program otherwise):
//
//  1. detectAll (the duplication triple): the first instruction reading
//     the corrupted register v within the scan window is
//     `cmp = icmp eq v, w` immediately followed by `detect cmp`, where
//     exactly one comparison operand is v (the other a different
//     register or a constant — either is fault-free under the
//     single-fault model). The golden run passed every instance of the
//     detect, so the golden comparison was true at every instance:
//     w's value equals v's golden value. A perturbation that CHANGES v
//     therefore makes the comparison false and the detect halts. The
//     instructions between v's definition and the comparison do not
//     read v, so they behave exactly as in the golden run (in
//     particular they cannot trap — the golden run did not); nothing
//     observable happens before the detect fires. Valid for any bits:
//     the proof needs only v-corrupt ≠ v-golden, which AlwaysFlips
//     fault classes guarantee for every mask.
//
//  2. detectNext: the instruction immediately after v's definition is
//     `detect v`. The golden run passed it, so golden bit 0 is 1 at
//     every instance; a perturbation flipping bit 0 clears it and the
//     detect halts with nothing in between. Valid only for effects
//     that touch bit 0 (checked by the caller) under AlwaysFlips.
//
// Both shapes are invalid for stuck-at models: a stuck-at perturbation
// may leave the value unchanged, in which case the detector stays
// quiet and the outcome is Benign, not Detected. FaultClass.AlwaysFlips
// gates them (triage.go).

// detectScanWindow bounds how far past a definition the detectAll scan
// looks for the comparison. The duplication transform places its
// triple immediately after the protected instruction, so a small
// window is sufficient and keeps the scan linear. For a phi of a
// block's leading group, the transform places the compare after the
// group, behind the compare/detect pairs of the earlier phis, so the
// scan starts after the group and the window grows by two per phi.
const detectScanWindow = 8

// detectFacts records, per instruction ID, the detection proofs.
type detectFacts struct {
	all  []bool // any value change is detected (shape 1)
	next []bool // a bit-0 change is detected (shape 2)
}

// buildDetectFacts scans every block for the two shapes.
func buildDetectFacts(m *ir.Module) detectFacts {
	d := detectFacts{
		all:  make([]bool, m.NumInstrs()),
		next: make([]bool, m.NumInstrs()),
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			lead := b.LeadingPhis()
			for i, in := range b.Instrs {
				if !in.HasResult() {
					continue
				}
				if i+1 < len(b.Instrs) {
					n := b.Instrs[i+1]
					if n.Op == ir.OpDetect && readsOnly(n.Args[0], in.Dst) {
						d.next[in.ID] = true
					}
				}
				d.all[in.ID] = scanDetectAll(b.Instrs, i, in.Dst, lead)
			}
		}
	}
	return d
}

// scanDetectAll checks shape 1 for the definition of register v at
// instrs[i]: within the window, the first reader of v must be an
// eq-comparison against a clean operand whose result feeds an
// immediately following detect. lead is the length of the block's
// leading phi group.
func scanDetectAll(instrs []*ir.Instr, i, v, lead int) bool {
	start, window := i+1, detectScanWindow
	if i < lead {
		// The rest of the group reads its incoming values on block
		// entry, in parallel, before v is written: none of it reads
		// this definition of v. A phi naming v reads it on a later
		// entry, after control has passed this block's checks.
		for ; start < lead; start++ {
			if instrs[start].Dst == v {
				return false // v redefined (non-SSA safety)
			}
		}
		window += 2 * lead
	}
	end := start + window
	if end > len(instrs) {
		end = len(instrs)
	}
	for j := start; j < end; j++ {
		u := instrs[j]
		if u.HasResult() && u.Dst == v {
			return false // v redefined before any check (non-SSA safety)
		}
		if !readsReg(u, v) {
			continue
		}
		// First reader of v. It must be the duplication check.
		if u.Op != ir.OpICmp || u.Pred != ir.PredEQ || j+1 >= len(instrs) {
			return false
		}
		det := instrs[j+1]
		if det.Op != ir.OpDetect || !readsOnly(det.Args[0], u.Dst) {
			return false
		}
		// Exactly one comparison operand is v: `icmp eq v, v` is true
		// however v is corrupted and detects nothing.
		a0v := u.Args[0].Kind == ir.OperReg && u.Args[0].Reg == v
		a1v := u.Args[1].Kind == ir.OperReg && u.Args[1].Reg == v
		return a0v != a1v
	}
	return false
}

// readsReg reports whether in reads register r through any operand.
func readsReg(in *ir.Instr, r int) bool {
	for _, a := range in.Args {
		if a.Kind == ir.OperReg && a.Reg == r {
			return true
		}
	}
	return false
}

// readsOnly reports whether operand o is exactly register r.
func readsOnly(o ir.Operand, r int) bool {
	return o.Kind == ir.OperReg && o.Reg == r
}
