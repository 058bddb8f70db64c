package interp

import (
	"slices"

	"repro/internal/ir"
)

// This file implements golden-prefix checkpointing. A fault-injection
// trial is a fault-free run up to its injection point followed by a
// fault-armed suffix, and every trial of a campaign shares the same
// fault-free prefix. Checkpoint captures the interpreter state at evenly
// spaced quantum boundaries of one fault-free run; RunScratchFrom then
// starts each trial from the latest snapshot before its injection point
// instead of from main's entry.
//
// Soundness rests on two facts about single-threaded runs: the state
// captured here (memory, output, counters, the frame stack with its
// registers) determines the rest of the run, and a captured fault-free
// state is exactly the state a fault-armed run reaches at the same point
// before its fault fires. The same argument ends trials early: once the
// fault has fired, a trial whose whole state equals a snapshot's at the
// same dynamic-instruction count has the golden run's future, so its
// Result is the golden Result.
//
// The one counter that is not plain state is the armed instruction's
// occurrence count (faultSeen). Each snapshot records, per static
// instruction, what that count would be had the instruction been armed:
// the profile's execution count, minus the activations of result-bearing
// calls still on the stack, whose occurrence is counted when the call
// returns its value rather than when it is issued.

// maxCheckpoints bounds the snapshots one Checkpoints set holds.
const maxCheckpoints = 32

// ckptMinSpacing is the fewest dynamic instructions between two
// snapshots. A golden run shorter than this gets no snapshot at all: the
// snapshot run would cost more than the prefixes it saves.
const ckptMinSpacing = 1024

// ckptSetBytes bounds the memory of one Checkpoints set: a program with a
// large memory image gets fewer snapshots.
const ckptSetBytes = 512 << 10

// ckptMaxChecks bounds the convergence compares one trial makes after its
// fault fires. A fault that is still visible at two snapshot positions is
// almost always an SDC or a detection, and those trials should not keep
// paying for full-state compares.
const ckptMaxChecks = 2

// Checkpoints is a set of golden-state snapshots of one fault-free run of
// a module under one input and configuration. It is immutable once built
// and safe for concurrent use by any number of Runners.
type Checkpoints struct {
	comp *Compiled // identifies the module revision
	cfg  Config

	globalBase []int
	globalLen  []int
	globalsEnd int
	memLen     int
	base       []uint64 // memory when main starts, trailing zeros trimmed

	snaps  []snapshot
	golden Result // the snapshot run's Result; Output is owned
}

// snapshot is the machine state at one quantum boundary of the golden run.
type snapshot struct {
	nDyn, cycles  int64
	spans         []int32  // [start, end) pairs of words that differ from base
	words         []uint64 // the values of those words, span after span
	out           []uint64
	frames        []frame // registers (not the constant pool) deep-copied
	sp, callDepth int
	seen          []int64 // per static instruction: its faultSeen here
}

// Resume reports how a RunScratchFrom trial used its checkpoints.
type Resume struct {
	Restored  bool  // started from a snapshot rather than main's entry
	Skipped   int64 // golden instructions not executed (prefix plus converged tail)
	Converged bool  // ended early on a state equal to the golden run's
}

// Golden returns the Result of the fault-free run the snapshots were
// taken from. Its Output is shared and must not be modified.
func (ck *Checkpoints) Golden() Result { return ck.golden }

// Checkpoint executes the module fault-free under bind and captures up to
// maxCheckpoints snapshots spaced evenly over dyn, the run's dynamic
// length as measured by an earlier golden run. It returns nil when trials
// of this run cannot resume from snapshots: under the legacy engine
// (which traced runs and legacy-only modules, i.e. unverified IR, also
// use; SID-protected modules compile and checkpoint), for modules that
// spawn threads, for modules whose value-returning calls can return
// without a value, when dyn is too short to space one snapshot, and when
// the run does not complete in exactly dyn instructions.
func (r *Runner) Checkpoint(bind Binding, dyn int64) *Checkpoints {
	n := min(int64(maxCheckpoints), dyn/ckptMinSpacing)
	if n < 1 {
		return nil
	}
	eng := r.resolveEngine()
	if eng == EngineLegacy || r.comp.img.hasSpawn || valuelessReturns(r.mod) {
		return nil
	}
	prof := NewProfile(r.mod)
	r.arm(nil, prof)
	runQ := r.begin(bind, eng)
	if n = min(n, ckptSetBytes/snapshotBytes(r.globalsEnd, len(prof.InstrCount))); n < 1 {
		return nil
	}
	ck := &Checkpoints{
		comp: r.comp, cfg: r.cfg,
		globalBase: slices.Clone(r.globalBase), globalLen: slices.Clone(r.globalLen),
		globalsEnd: r.globalsEnd, memLen: len(r.mem), base: slices.Clone(trimZeros(r.mem)),
	}
	t := r.threads[0]
	next := int64(1) // the next snapshot target is next*dyn/(n+1)
	for !r.halted && !t.done {
		runQ(t, r.cfg.Quantum)
		if r.halted || t.done || next > n || r.nDyn < next*dyn/(n+1) {
			continue
		}
		ck.snaps = append(ck.snaps, r.snapshot(t, prof, ck.base))
		for next <= n && r.nDyn >= next*dyn/(n+1) {
			next++
		}
	}
	ck.golden = r.result(true)
	if ck.golden.Status != StatusOK || ck.golden.DynInstrs != dyn || len(ck.snaps) == 0 {
		return nil
	}
	return ck
}

// snapshotBytes bounds one snapshot's size before any is taken, assuming
// every global word changed: the per-instruction counts and the words
// that differ from the initial memory dominate; the live stack, the
// registers and the output are small.
func snapshotBytes(globalWords, nInstrs int) int64 {
	return 8 * int64(globalWords+nInstrs+64)
}

// Bytes returns the memory the snapshots hold.
func (ck *Checkpoints) Bytes() int64 {
	var words int
	for _, s := range ck.snaps {
		words += len(s.words) + len(s.spans)/2 + len(s.out) + len(s.seen) + 16*len(s.frames)
		for _, fr := range s.frames {
			words += len(fr.regs)
		}
	}
	return 8 * int64(words+len(ck.base))
}

// trimZeros returns mem without its trailing zero words.
func trimZeros(mem []uint64) []uint64 {
	end := len(mem)
	for end > 0 && mem[end-1] == 0 {
		end--
	}
	return mem[:end]
}

// baseAt is word i of the initial memory image base.
func baseAt(base []uint64, i int) uint64 {
	if i < len(base) {
		return base[i]
	}
	return 0
}

// valuelessReturns reports whether some call that produces a result can
// reach a return without a value. Such a return does not count as an
// occurrence of the call, which the per-snapshot counts cannot express.
func valuelessReturns(m *ir.Module) bool {
	bare := make([]bool, len(m.Funcs))
	for i, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpRet && len(in.Args) == 0 {
					bare[i] = true
				}
			}
		}
	}
	for _, in := range m.Instrs {
		if in.Op == ir.OpCall && in.HasResult() && bare[in.Callee] {
			return true
		}
	}
	return false
}

// snapshot captures the current state of the single thread t.
// Memory is kept as the spans that differ from the initial image: input
// arrays a program only reads cost nothing per snapshot.
func (r *Runner) snapshot(t *thread, prof *Profile, base []uint64) snapshot {
	s := snapshot{
		nDyn: r.nDyn, cycles: r.cycles,
		out:    slices.Clone(r.out),
		frames: slices.Clone(t.frames),
		sp:     t.sp, callDepth: t.callDepth,
		seen: slices.Clone(prof.InstrCount),
	}
	for i := 0; i < len(r.mem); {
		if r.mem[i] == baseAt(base, i) {
			i++
			continue
		}
		j := i + 1
		for j < len(r.mem) && r.mem[j] != baseAt(base, j) {
			j++
		}
		s.spans = append(s.spans, int32(i), int32(j))
		s.words = append(s.words, r.mem[i:j]...)
		i = j
	}
	nRegs := 0
	for _, fr := range t.frames {
		nRegs += fr.cfn.ifn.nRegs
	}
	regs := make([]uint64, 0, nRegs)
	for i := range s.frames {
		fr := &s.frames[i]
		// The constant pool above the registers is never written; restore
		// reloads it from the function.
		n := fr.cfn.ifn.nRegs
		regs = append(regs, fr.regs[:n]...)
		fr.regs = regs[len(regs)-n : len(regs) : len(regs)]
		if fr.callID >= 0 {
			s.seen[fr.callID]-- // issued, but its value is not returned yet
		}
	}
	return s
}

// RunScratchFrom is RunScratch for a fault-armed trial that resumes from
// ck, which must have been built for this runner's module under the same
// binding. The trial starts from the latest snapshot taken before the
// fault's dynamic instance, and once the fault has fired it compares its
// state with the golden snapshots it passes at equal dynamic-instruction
// counts, up to ckptMaxChecks times; on equality it returns the golden
// Result. Every Result is identical to RunScratch's. When ck does not fit
// the run (nil, another engine or configuration, no fault) the trial runs
// in full.
func (r *Runner) RunScratchFrom(ck *Checkpoints, bind Binding, fault *Fault) (Result, Resume) {
	if ck == nil || fault == nil {
		return r.run(bind, fault, nil, false), Resume{}
	}
	eng := r.resolveEngine()
	if !ck.fits(r, eng) {
		return r.run(bind, fault, nil, false), Resume{}
	}
	r.arm(fault, nil)
	rc := obsCounters.Load()

	var rs Resume
	var runQ func(*thread, int)
	k := ck.latest(fault)
	if k < 0 {
		runQ = r.begin(bind, eng)
	} else {
		r.restore(ck, &ck.snaps[k], fault.InstrID)
		runQ = r.quantumFor(eng)
		rs.Restored, rs.Skipped = true, r.nDyn
	}
	t := r.threads[0]
	checks, j := 0, k+1
	for !r.halted && !t.done {
		runQ(t, r.cfg.Quantum)
		if checks == ckptMaxChecks || j == len(ck.snaps) || r.nDyn < ck.snaps[j].nDyn || r.halted || t.done {
			continue
		}
		for j < len(ck.snaps) && ck.snaps[j].nDyn < r.nDyn {
			j++
		}
		if j == len(ck.snaps) || ck.snaps[j].nDyn != r.nDyn {
			continue
		}
		if r.faultSeen > fault.DynIndex {
			checks++
			if r.sameState(ck, &ck.snaps[j], t) {
				rs.Converged = true
				rs.Skipped += ck.golden.DynInstrs - r.nDyn
				res := ck.golden
				if rc != nil {
					rc.recordRun(&res, eng, nil, 0)
				}
				return res, rs
			}
		}
		j++
	}
	res := r.result(false)
	if rc != nil {
		rc.recordRun(&res, eng, nil, 0)
	}
	return res, rs
}

// fits reports whether trials of runner r under engine eng may resume
// from ck: the compiled engine on the same compiled program (hence module
// revision), and a configuration that differs at most in a hang budget
// the golden run fits in.
func (ck *Checkpoints) fits(r *Runner, eng Engine) bool {
	cfg := r.cfg
	cfg.MaxDynInstrs = ck.cfg.MaxDynInstrs
	return eng == EngineCompiled && ck.comp == r.comp && cfg == ck.cfg &&
		r.cfg.MaxDynInstrs >= ck.golden.DynInstrs
}

// latest returns the index of the last snapshot taken before f's target
// occurrence, or -1 when the trial must start from main's entry. The
// per-instruction counts grow monotonically from snapshot to snapshot.
func (ck *Checkpoints) latest(f *Fault) int {
	if f.InstrID < 0 || f.InstrID >= len(ck.snaps[0].seen) {
		return -1
	}
	n, _ := slices.BinarySearchFunc(ck.snaps, f.DynIndex, func(s snapshot, dyn int64) int {
		if s.seen[f.InstrID] <= dyn {
			return -1
		}
		return 1
	})
	return n - 1
}

// restore loads snapshot s into the runner, with faultSeen set for the
// armed instruction id. The fault-armed run needs the compiled engine's
// exact code streams, which share every offset with the specialized
// streams the snapshot run used.
func (r *Runner) restore(ck *Checkpoints, s *snapshot, id int) {
	r.globalBase = append(r.globalBase[:0], ck.globalBase...)
	r.globalLen = append(r.globalLen[:0], ck.globalLen...)
	r.globalsEnd = ck.globalsEnd
	if cap(r.mem) < ck.memLen {
		r.mem = make([]uint64, ck.memLen)
	}
	r.mem = r.mem[:ck.memLen]
	copy(r.mem, ck.base)
	clear(r.mem[len(ck.base):])
	words := s.words
	for k := 0; k < len(s.spans); k += 2 {
		n := copy(r.mem[s.spans[k]:s.spans[k+1]], words)
		words = words[n:]
	}
	r.out = append(r.out[:0], s.out...)
	r.nDyn, r.cycles = s.nDyn, s.cycles
	r.status, r.trap, r.halted = StatusOK, "", false
	r.faultSeen = s.seen[id]

	r.threads = r.threads[:0]
	t := r.pooledThread()
	t.sp, t.stackEnd, t.callDepth = s.sp, ck.globalsEnd+r.cfg.StackWords, s.callDepth
	for i := range s.frames {
		fr := t.pushSlot()
		regs := fr.regs
		*fr = s.frames[i]
		regs = append(regs[:0], s.frames[i].regs...)
		fr.code, fr.cruns = fr.cfn.code, fr.cfn.runs
		fr.regs = append(regs, fr.cfn.consts...)
	}
}

// sameState reports whether the running thread t and the machine equal
// snapshot s in everything that determines the rest of the run. Code
// streams are compared through their function: a trial runs the exact
// stream where the snapshot run used the specialized one.
func (r *Runner) sameState(ck *Checkpoints, s *snapshot, t *thread) bool {
	if r.cycles != s.cycles || len(r.threads) != 1 || t.sp != s.sp || t.callDepth != s.callDepth ||
		len(t.frames) != len(s.frames) || !slices.Equal(r.out, s.out) || len(r.mem) != ck.memLen {
		return false
	}
	// Memory: the initial image between spans, the snapshot's words in them.
	from, words := 0, s.words
	for k := 0; k <= len(s.spans); k += 2 {
		to := len(r.mem)
		if k < len(s.spans) {
			to = int(s.spans[k])
		}
		for i := from; i < to; i++ {
			if r.mem[i] != baseAt(ck.base, i) {
				return false
			}
		}
		if k == len(s.spans) {
			break
		}
		from = int(s.spans[k+1])
		if !slices.Equal(r.mem[to:from], words[:from-to]) {
			return false
		}
		words = words[from-to:]
	}
	for i := range t.frames {
		a, b := &t.frames[i], &s.frames[i]
		if a.cfn != b.cfn || a.fn != b.fn || a.pc != b.pc || a.block != b.block ||
			a.prevBlock != b.prevBlock || a.spSave != b.spSave || a.retDst != b.retDst ||
			a.callInstr != b.callInstr || a.callID != b.callID || a.callTBits != b.callTBits ||
			a.phiSrc != b.phiSrc || !slices.Equal(a.regs[:len(b.regs)], b.regs) {
			return false
		}
	}
	return true
}
