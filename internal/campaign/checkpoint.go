package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"

	"castanet/internal/durable"
	"castanet/internal/obs"
)

// ErrCheckpoint classifies checkpoint-file problems: corruption, version
// or fingerprint mismatch. The CLI maps it to usage-and-exit-2 territory —
// the operator pointed a campaign at the wrong (or a damaged) file.
var ErrCheckpoint = errors.New("campaign: bad checkpoint")

// The checkpoint is a durable file (magic "CKPT", version 3: header, CRC
// and field encoding in package durable) carrying payload v3.
// v2 added a coverage block after each stats block — to the shard
// snapshot and to every held entry; v3 adds an activity block (the
// simulation profile) after each coverage block. Older files are rejected
// by version, not silently misread:
//
//	u64 spec fingerprint          u64 seed
//	u64 runs                      u32 shards (effective)
//	u32 matrix length             u8  board present
//	shards × shard snapshot:
//	  u64 done (watermark)        u64 completed
//	  u64 failTotal               u64 quarantined
//	  u64 retried                 u64 gaveUp
//	  u32 nstats × {str name, u64 count, f64 sum, f64 min, f64 max}
//	  u32 ngroups × {str group, u32 npoints ×
//	    {str point, u32 nbins × {str bin, u64 hits}}}
//	  u32 nsignals × {str name, u64 width, u64 events, u64 twoState}
//	  u32 nprocs   × {str name, u64 runs, u64 deltaRuns}
//	  u32 nfail  × {u64 index, u64 seed, str cell, str label, str detail}
//	  u32 nheld  × {u64 index, u8 hasFail, [fail as above],
//	    u32 nstats × {...}, u32 ngroups × {...},
//	    u32 nsignals × {...}, u32 nprocs × {...}}
//	board (when present): u32 ncells ×
//	  {u64 decided, u64 consec, u64 chainFirst, u8 quarantined,
//	   u64 e, u64 firstFail,
//	   u32 npending × {u64 ord, u64 index, u8 failed, u8 gaveUp}}
var ckptFormat = durable.Format{Magic: "CKPT", Version: 3, Class: ErrCheckpoint}

// ckFailure is one persisted digest entry. The label is materialized at
// save time (Failure.Label() of a live error) so a restored digest renders
// byte-identically without resurrecting the error value.
type ckFailure struct {
	index, seed         uint64
	cell, label, detail string
}

// ckHeld is one persisted held entry: a committed run whose stats and
// digest retention await their final quarantine classification. Cell and
// ordinal re-derive from the index.
type ckHeld struct {
	index    uint64
	fail     *ckFailure
	stats    []Stat
	cover    []obs.CoverGroupSnap
	activity obs.ActivitySnap
}

// ckShard is one shard's persisted snapshot.
type ckShard struct {
	done, completed, failTotal   int
	quarantined, retried, gaveUp int
	stats                        []Stat
	cover                        []obs.CoverGroupSnap
	activity                     obs.ActivitySnap
	failures                     []ckFailure
	held                         []ckHeld
}

// ckPending mirrors pendingOutcome with its ordinal key.
type ckPending struct {
	ord, index     uint64
	failed, gaveUp bool
}

// ckCell mirrors cellBoard.
type ckCell struct {
	decided, chainFirst, e, firstFail uint64
	consec                            int
	quarantined                       bool
	pending                           []ckPending
}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	fingerprint uint64
	seed        uint64
	runs        int
	shards      int
	matrixLen   int
	snaps       []ckShard
	board       []ckCell
	hasBoard    bool
}

// specFingerprint hashes everything the resumed campaign must agree on:
// identity, seed, run count, effective shard count (per-shard float sums
// only merge deterministically at a fixed shard count), digest bound,
// supervision policy, the coverage and profile flags (a resume must
// collect each exactly as the checkpointed campaign did, or the merged
// sections would be partial), and the matrix cell names in order.
func specFingerprint(s *Spec, shards int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ckpt-v3|%s|%d|%d|%d|%d|%v|%d|%v|%v|%d|cov=%v|prof=%v|",
		s.Name, s.Seed, s.Runs, shards, s.digestMax(),
		s.Policy.RunTimeout, s.Policy.Retries,
		s.Policy.retryBase(), s.Policy.retryCap(), s.Policy.QuarantineAfter,
		s.Coverage, s.Profile)
	for _, c := range s.Matrix {
		fmt.Fprintf(h, "%s|", c.Name())
	}
	return h.Sum64()
}

func encStats(e *durable.Enc, ss []Stat) {
	e.Count(len(ss))
	for _, s := range ss {
		e.Str(s.Name)
		e.U64(s.Count)
		e.F64(s.Sum)
		e.F64(s.Min)
		e.F64(s.Max)
	}
}

func encActivity(e *durable.Enc, a obs.ActivitySnap) {
	e.Count(len(a.Signals))
	for _, s := range a.Signals {
		e.Str(s.Name)
		e.U64(uint64(s.Width))
		e.U64(s.Events)
		e.U64(s.TwoState)
	}
	e.Count(len(a.Processes))
	for _, p := range a.Processes {
		e.Str(p.Name)
		e.U64(p.Runs)
		e.U64(p.DeltaRuns)
	}
}

func encFailure(e *durable.Enc, f ckFailure) {
	e.U64(f.index)
	e.U64(f.seed)
	e.Str(f.cell)
	e.Str(f.label)
	e.Str(f.detail)
}

func decStats(d *durable.Dec) []Stat {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	out := make([]Stat, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, Stat{Name: d.Str(), Count: d.U64(),
			Sum: d.F64(), Min: d.F64(), Max: d.F64()})
	}
	return out
}

func decActivity(d *durable.Dec) obs.ActivitySnap {
	var a obs.ActivitySnap
	ns := d.Count()
	for i := 0; i < ns && d.Err() == nil; i++ {
		a.Signals = append(a.Signals, obs.SignalActivity{
			Name: d.Str(), Width: int(d.U64()), Events: d.U64(), TwoState: d.U64()})
	}
	np := d.Count()
	for i := 0; i < np && d.Err() == nil; i++ {
		a.Processes = append(a.Processes, obs.ProcessActivity{
			Name: d.Str(), Runs: d.U64(), DeltaRuns: d.U64()})
	}
	if d.Err() != nil {
		return obs.ActivitySnap{}
	}
	return a
}

func decFailure(d *durable.Dec) ckFailure {
	return ckFailure{index: d.U64(), seed: d.U64(),
		cell: d.Str(), label: d.Str(), detail: d.Str()}
}

func encodeCheckpoint(ck *checkpointState) []byte {
	var e durable.Enc
	e.U64(ck.fingerprint)
	e.U64(ck.seed)
	e.U64(uint64(ck.runs))
	e.U32(uint32(ck.shards))
	e.U32(uint32(ck.matrixLen))
	e.Bool(ck.hasBoard)
	for _, s := range ck.snaps {
		e.U64(uint64(s.done))
		e.U64(uint64(s.completed))
		e.U64(uint64(s.failTotal))
		e.U64(uint64(s.quarantined))
		e.U64(uint64(s.retried))
		e.U64(uint64(s.gaveUp))
		encStats(&e, s.stats)
		e.Cover(s.cover)
		encActivity(&e, s.activity)
		e.Count(len(s.failures))
		for _, f := range s.failures {
			encFailure(&e, f)
		}
		e.Count(len(s.held))
		for _, h := range s.held {
			e.U64(h.index)
			e.Bool(h.fail != nil)
			if h.fail != nil {
				encFailure(&e, *h.fail)
			}
			encStats(&e, h.stats)
			e.Cover(h.cover)
			encActivity(&e, h.activity)
		}
	}
	if ck.hasBoard {
		e.Count(len(ck.board))
		for _, c := range ck.board {
			e.U64(c.decided)
			e.U64(uint64(c.consec))
			e.U64(c.chainFirst)
			e.Bool(c.quarantined)
			e.U64(c.e)
			e.U64(c.firstFail)
			e.Count(len(c.pending))
			for _, p := range c.pending {
				e.U64(p.ord)
				e.U64(p.index)
				e.Bool(p.failed)
				e.Bool(p.gaveUp)
			}
		}
	}
	return e.Bytes()
}

func decodeCheckpoint(payload []byte) (*checkpointState, error) {
	d := ckptFormat.Dec(payload)
	ck := &checkpointState{
		fingerprint: d.U64(),
		seed:        d.U64(),
		runs:        int(d.U64()),
		shards:      int(d.U32()),
		matrixLen:   int(d.U32()),
		hasBoard:    d.Bool(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ck.shards < 1 || ck.runs < 1 {
		return nil, fmt.Errorf("%w: nonsensical shape shards=%d runs=%d", ErrCheckpoint, ck.shards, ck.runs)
	}
	for s := 0; s < ck.shards && d.Err() == nil; s++ {
		snap := ckShard{
			done:        int(d.U64()),
			completed:   int(d.U64()),
			failTotal:   int(d.U64()),
			quarantined: int(d.U64()),
			retried:     int(d.U64()),
			gaveUp:      int(d.U64()),
			stats:       decStats(d),
		}
		snap.cover = d.Cover()
		snap.activity = decActivity(d)
		nfail := d.Count()
		for i := 0; i < nfail && d.Err() == nil; i++ {
			snap.failures = append(snap.failures, decFailure(d))
		}
		nheld := d.Count()
		for i := 0; i < nheld && d.Err() == nil; i++ {
			h := ckHeld{index: d.U64()}
			if d.Bool() {
				f := decFailure(d)
				h.fail = &f
			}
			h.stats = decStats(d)
			h.cover = d.Cover()
			h.activity = decActivity(d)
			snap.held = append(snap.held, h)
		}
		ck.snaps = append(ck.snaps, snap)
	}
	if ck.hasBoard {
		ncells := d.Count()
		for i := 0; i < ncells && d.Err() == nil; i++ {
			c := ckCell{
				decided:     d.U64(),
				consec:      int(d.U64()),
				chainFirst:  d.U64(),
				quarantined: d.Bool(),
				e:           d.U64(),
				firstFail:   d.U64(),
			}
			npend := d.Count()
			for j := 0; j < npend && d.Err() == nil; j++ {
				c.pending = append(c.pending, ckPending{
					ord: d.U64(), index: d.U64(),
					failed: d.Bool(), gaveUp: d.Bool()})
			}
			ck.board = append(ck.board, c)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ck, nil
}

// saveCheckpoint writes the checkpoint atomically (durable.Format.Save).
func saveCheckpoint(path string, ck *checkpointState) error {
	return ckptFormat.Save(path, encodeCheckpoint(ck))
}

// loadCheckpoint reads and validates a checkpoint file. A missing file is
// reported as os.ErrNotExist so Resume can fall back to a fresh start.
func loadCheckpoint(path string) (*checkpointState, error) {
	payload, err := ckptFormat.Load(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}
