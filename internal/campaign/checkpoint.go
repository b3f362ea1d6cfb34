package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"castanet/internal/durable"
	"castanet/internal/obs"
)

// ErrCheckpoint classifies checkpoint-file problems: corruption, version
// or fingerprint mismatch. The CLI maps it to usage-and-exit-2 territory —
// the operator pointed a campaign at the wrong (or a damaged) file.
var ErrCheckpoint = errors.New("campaign: bad checkpoint")

// The checkpoint is a durable file (magic "CKPT", version 4: header, CRC
// and field encoding in package durable) carrying payload v4, which
// stores each stat's exact sum. Older files are rejected by version, not
// silently misread:
//
//	u64 spec fingerprint          u64 seed
//	u64 runs                      u32 shards (effective)
//	shards × shard snapshot:
//	  u64 done (watermark)        u64 completed
//	  u64 failTotal               u64 retried
//	  u64 gaveUp
//	  u32 nstats × {str name, u64 count, f64 min, f64 max, sum}
//	    (names strictly ascending)
//	  u32 ngroups × {str group, u32 npoints ×
//	    {str point, u32 nbins × {str bin, u64 hits}}}
//	  u32 nsignals × {str name, u64 width, u64 events, u64 twoState}
//	  u32 nprocs   × {str name, u64 runs, u64 deltaRuns}
//	  u32 nfail  × {u64 index, u64 seed, str cell, str label, str detail}
//
// An exact sum is its non-finite part and the sign and magnitude of its
// finite part, the magnitude as the window of 32-bit limbs (limb 0 weighs
// 2^-1074) from its lowest to its highest nonzero limb:
//
//	f64 special (0, ±Inf or NaN)  u8 negative
//	u8 lo                         u8 n
//	n × u32 limb                  (n = 0: zero, lo = 0, not negative)
var ckptFormat = durable.Format{Magic: "CKPT", Version: 4, Class: ErrCheckpoint}

// ckFailure is one persisted digest entry. The label is materialized at
// save time (Failure.Label() of a live error) so a restored digest renders
// byte-identically without resurrecting the error value.
type ckFailure struct {
	index, seed         uint64
	cell, label, detail string
}

// ckShard is one shard's persisted snapshot.
type ckShard struct {
	done, completed, failTotal int
	retried, gaveUp            int
	stats                      []namedStat
	cover                      []obs.CoverGroupSnap
	activity                   obs.ActivitySnap
	failures                   []ckFailure
}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	fingerprint uint64
	seed        uint64
	runs        int
	shards      int
	snaps       []ckShard
}

// specFingerprint hashes everything the resumed campaign must agree on:
// identity, seed, run count, effective shard count (shard s owns the
// indices ≡ s mod shards, so a per-shard watermark only means something
// at the count that wrote it), digest bound, supervision policy, the
// coverage and profile flags (a resume must collect each exactly as the
// checkpointed campaign did, or the merged sections would be partial),
// and the matrix cell names in order.
func specFingerprint(s *Spec, shards int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ckpt-v4|%s|%d|%d|%d|%d|%v|%d|%v|%v|cov=%v|prof=%v|",
		s.Name, s.Seed, s.Runs, shards, s.digestMax(),
		s.Policy.RunTimeout, s.Policy.Retries,
		s.Policy.retryBase(), s.Policy.retryCap(),
		s.Coverage, s.Profile)
	for _, c := range s.Matrix {
		fmt.Fprintf(h, "%s|", c.Name())
	}
	return h.Sum64()
}

func encStats(e *durable.Enc, ss []namedStat) {
	e.Count(len(ss))
	for i := range ss {
		s := &ss[i]
		e.Str(s.name)
		e.U64(s.count)
		e.F64(s.min)
		e.F64(s.max)
		encSum(e, &s.sum)
	}
}

func encSum(e *durable.Enc, s *exactSum) {
	neg, mag := s.magnitude()
	lo, hi := 0, len(mag)
	for lo < hi && mag[lo] == 0 {
		lo++
	}
	for hi > lo && mag[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		lo, hi = 0, 0
	}
	e.F64(s.special)
	e.Bool(neg)
	e.U8(uint8(lo))
	e.U8(uint8(hi - lo))
	for _, l := range mag[lo:hi] {
		e.U32(l)
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

func decStats(d *durable.Dec) []namedStat {
	// No preallocation: an entry is far larger in memory than its
	// smallest encoding, so only entries actually decoded take space.
	var out []namedStat
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		s := namedStat{name: d.Str()}
		s.count, s.min, s.max = d.U64(), d.F64(), d.F64()
		s.sum = decSum(d)
		if i > 0 && s.name <= out[i-1].name {
			d.Fail("stat %q out of name order", s.name)
		}
		out = append(out, s)
	}
	return out
}

// decSum reads what encSum wrote and accepts only that canonical form, so
// an accepted payload re-encodes to its exact bytes.
func decSum(d *durable.Dec) exactSum {
	var s exactSum
	s.special = d.F64()
	if s.special != 0 && !math.IsInf(s.special, 0) && !math.IsNaN(s.special) {
		d.Fail("non-finite part %g is finite", s.special)
	}
	neg := d.Bool()
	lo, n := int(d.U8()), int(d.U8())
	switch {
	case lo+n > sumLimbs:
		d.Fail("sum limbs %d..%d beyond %d", lo, lo+n, sumLimbs)
	case n == 0 && (lo != 0 || neg):
		d.Fail("non-canonical zero sum")
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		l := int64(d.U32())
		if (i == 0 || i == n-1) && l == 0 {
			d.Fail("sum window ends in a zero limb")
		}
		if neg {
			l = -l
		}
		s.limb[lo+i] = l
	}
	return s
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
	for _, s := range ck.snaps {
		e.U64(uint64(s.done))
		e.U64(uint64(s.completed))
		e.U64(uint64(s.failTotal))
		e.U64(uint64(s.retried))
		e.U64(uint64(s.gaveUp))
		encStats(&e, s.stats)
		e.Cover(s.cover)
		encActivity(&e, s.activity)
		e.Count(len(s.failures))
		for _, f := range s.failures {
			encFailure(&e, f)
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
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ck.shards < 1 || ck.runs < 1 {
		return nil, fmt.Errorf("%w: nonsensical shape shards=%d runs=%d", ErrCheckpoint, ck.shards, ck.runs)
	}
	for s := 0; s < ck.shards && d.Err() == nil; s++ {
		snap := ckShard{
			done:      int(d.U64()),
			completed: int(d.U64()),
			failTotal: int(d.U64()),
			retried:   int(d.U64()),
			gaveUp:    int(d.U64()),
			stats:     decStats(d),
		}
		snap.cover = d.Cover()
		snap.activity = decActivity(d)
		nfail := d.Count()
		for i := 0; i < nfail && d.Err() == nil; i++ {
			snap.failures = append(snap.failures, decFailure(d))
		}
		ck.snaps = append(ck.snaps, snap)
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
