package fault

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
)

// minCkptSites is the smallest trial batch that builds a golden run's
// checkpoints. The snapshot run costs about one profiled golden run and a
// resumed trial saves on average about half of one, so smaller batches
// run in full until a larger batch has paid for the snapshots.
const minCkptSites = 4

// ckptBudget bounds the bytes the checkpoints of all golden runs hold
// together. Golden runs live long in caches (Cache, the pipeline store,
// the campaign server) while a campaign uses its checkpoints for a few
// batches, so the least recently used sets are dropped past the budget
// and rebuilt if a later batch needs them again.
const ckptBudget = 1 << 20

// ckptCell holds the checkpoints of one Golden: the campaign identity
// they were built for and the set itself. A cell builds at most once;
// when the budget evicts its set, the next large batch installs a fresh
// cell.
type ckptCell struct {
	once  sync.Once
	mod   *ir.Module
	cfg   interp.Config
	bind  [sha256.Size]byte
	built bool // written by once: a set was built, though it may be evicted
	bytes int64
	set   atomic.Pointer[interp.Checkpoints]
}

// ckptLRU tracks the cells that hold a set, least recently used first.
var ckptLRU struct {
	sync.Mutex
	cells []*ckptCell
	bytes int64
}

// checkpoints returns the golden-prefix checkpoints trials of this
// campaign resume from, running the snapshot run on first use, or nil
// when trials run in full: a batch too small to pay for the snapshot
// run, a golden run interp cannot checkpoint (see interp.Checkpoint), or
// a campaign whose module, input or configuration differs from the one
// the golden's checkpoints were built for. cfg is the trial config.
func (c *Campaign) checkpoints(cfg interp.Config, nSites int) *interp.Checkpoints {
	g := c.Golden
	bind := BindingKey(c.Bind)
	for {
		cell := g.ckpt.Load()
		if cell == nil {
			if nSites < minCkptSites {
				return nil
			}
			if g.ckpt.CompareAndSwap(nil, &ckptCell{mod: c.Mod, cfg: cfg, bind: bind}) {
				// The golden's cells stay reachable from the LRU; release
				// them when the golden itself is collected.
				runtime.SetFinalizer(g, func(g *Golden) { ckptRelease(g.ckpt.Load()) })
			}
			continue
		}
		if cell.mod != c.Mod || cell.cfg != cfg || cell.bind != bind {
			return nil
		}
		cell.once.Do(func() { c.buildCheckpoints(cell) })
		if !cell.built {
			return nil
		}
		if ck := cell.set.Load(); ck != nil {
			ckptTouch(cell)
			return ck
		}
		// Evicted: a batch that pays for a new snapshot run installs a
		// fresh cell.
		if nSites < minCkptSites {
			return nil
		}
		g.ckpt.CompareAndSwap(cell, &ckptCell{mod: c.Mod, cfg: cfg, bind: bind})
	}
}

// buildCheckpoints runs the snapshot run for cell and admits the set to
// the budget. The run's time counts as campaign busy time.
func (c *Campaign) buildCheckpoints(cell *ckptCell) {
	t0 := time.Now()
	ck := interp.NewRunner(c.Mod, cell.cfg).Checkpoint(c.Bind, c.Golden.DynInstrs)
	c.Metrics.AddBusy(time.Since(t0))
	if ck == nil {
		return
	}
	if res := ck.Golden(); res.OutputHash != c.Golden.OutputHash || res.Cycles != c.Golden.Cycles ||
		Classify(c.Golden, res) != OutcomeBenign {
		return
	}
	c.Obs.Counter("fault.ckpt.builds").Inc()
	cell.built, cell.bytes = true, ck.Bytes()
	cell.set.Store(ck)
	ckptLRU.Lock()
	defer ckptLRU.Unlock()
	ckptLRU.cells = append(ckptLRU.cells, cell)
	ckptLRU.bytes += cell.bytes
	for ckptLRU.bytes > ckptBudget && len(ckptLRU.cells) > 1 {
		old := ckptLRU.cells[0]
		ckptLRU.cells = ckptLRU.cells[1:]
		ckptLRU.bytes -= old.bytes
		old.set.Store(nil)
	}
}

// ckptTouch marks cell most recently used.
func ckptTouch(cell *ckptCell) {
	ckptLRU.Lock()
	defer ckptLRU.Unlock()
	if i := slices.Index(ckptLRU.cells, cell); i >= 0 {
		ckptLRU.cells = append(slices.Delete(ckptLRU.cells, i, i+1), cell)
	}
}

// ckptRelease drops cell's set from the budget.
func ckptRelease(cell *ckptCell) {
	ckptLRU.Lock()
	defer ckptLRU.Unlock()
	if i := slices.Index(ckptLRU.cells, cell); i >= 0 {
		ckptLRU.cells = slices.Delete(ckptLRU.cells, i, i+1)
		ckptLRU.bytes -= cell.bytes
		cell.set.Store(nil)
	}
}

// ckptStats accumulates how one worker's trials used the checkpoints.
type ckptStats struct {
	restores, skipped, converged int64
}

func (s *ckptStats) add(rs interp.Resume) {
	if rs.Restored {
		s.restores++
	}
	if rs.Converged {
		s.converged++
	}
	s.skipped += rs.Skipped
}

// publishCkpt folds s into the campaign's observability counters.
func (c *Campaign) publishCkpt(s ckptStats) {
	c.Obs.Counter("fault.ckpt.restores").Add(s.restores)
	c.Obs.Counter("fault.ckpt.instrs_skipped").Add(s.skipped)
	c.Obs.Counter("fault.ckpt.converged").Add(s.converged)
}
