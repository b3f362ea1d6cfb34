package explore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"

	"castanet/internal/durable"
)

// ErrState classifies explorer state-file problems: corruption, version
// or fingerprint mismatch. Like campaign.ErrCheckpoint it is operator
// territory — the exploration was pointed at the wrong or a damaged
// file.
var ErrState = errors.New("explore: bad state file")

// The state file is a durable file (magic "EXPL", version 1: header, CRC,
// atomic write and field encoding in package durable), rewritten at every
// generation boundary. Payload v1:
//
//	u64 spec fingerprint
//	u32 gen (next generation to run)
//	u64 failTotal
//	u32 npop   × {u32 ngenes × u16 gene}
//	u32 ngroup × {str group, u32 npoints ×
//	  {str point, u32 nbins × {str bin, u64 hits}}}
//	u32 nladder × {u32 gen, u64 covered, u64 total, u64 new,
//	  u64 accepted, u64 rejected, u64 failures}
//	u32 nfail  × {u64 index, u32 gen, u32 slot, u64 seed,
//	  str cell, str label}
var stateFormat = durable.Format{Magic: "EXPL", Version: 1, Class: ErrState}

// fingerprint hashes everything a resumed exploration must agree on:
// space identity and genome schema, master seed, generation/population
// geometry, target group, selection and digest bounds, and the
// supervision policy. The shard count is deliberately absent — the
// digest is shard-invariant, so an exploration may resume on different
// hardware.
func fingerprint(s *Spec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "expl-v1|%s|%d|%d|%d|%s|%d|%d|%v|%d|%v|%v|",
		s.Space.Name(), s.Seed, s.Generations, s.Population, s.Target,
		s.elite(), s.digestMax(),
		s.Policy.RunTimeout, s.Policy.Retries,
		s.Policy.RetryBase, s.Policy.RetryCap)
	for _, g := range s.Space.Genes() {
		fmt.Fprintf(h, "%s:%d|", g.Name, g.Card)
	}
	return h.Sum64()
}

func encodeState(spec *Spec, e *engine) []byte {
	var enc durable.Enc
	enc.U64(fingerprint(spec))
	enc.U32(uint32(e.gen))
	enc.U64(uint64(e.failTotal))
	enc.Count(len(e.pop))
	for _, g := range e.pop {
		enc.Count(len(g))
		for _, v := range g {
			enc.U16(v)
		}
	}
	enc.Cover(e.cum)
	enc.Count(len(e.ladder))
	for _, s := range e.ladder {
		enc.U32(uint32(s.Gen))
		enc.U64(uint64(s.Covered))
		enc.U64(uint64(s.Total))
		enc.U64(uint64(s.New))
		enc.U64(uint64(s.Accepted))
		enc.U64(uint64(s.Rejected))
		enc.U64(uint64(s.Failures))
	}
	enc.Count(len(e.failures))
	for _, f := range e.failures {
		enc.U64(f.Index)
		enc.U32(uint32(f.Gen))
		enc.U32(uint32(f.Slot))
		enc.U64(f.Seed)
		enc.Str(f.Cell)
		enc.Str(f.Label)
	}
	return enc.Bytes()
}

// decodeState restores an engine from a payload; the engine arrives
// holding the generation-zero population, which the file's population
// replaces.
func decodeState(spec *Spec, e *engine, payload []byte) error {
	d := stateFormat.Dec(payload)
	if got, want := d.U64(), fingerprint(spec); got != want {
		return fmt.Errorf("%w: spec fingerprint 0x%016x does not match 0x%016x (different space, seed, geometry or policy)",
			ErrState, got, want)
	}
	gen := int(d.U32())
	failTotal := int(d.U64())
	npop := d.Count()
	pop := make([]Genome, 0, npop)
	genes := spec.Space.Genes()
	for i := 0; i < npop && d.Err() == nil; i++ {
		ngenes := d.Count()
		g := make(Genome, 0, ngenes)
		for j := 0; j < ngenes && d.Err() == nil; j++ {
			g = append(g, d.U16())
		}
		pop = append(pop, clampGenome(g, genes))
	}
	cum := d.Cover()
	nladder := d.Count()
	ladder := make([]GenStat, 0, nladder)
	for i := 0; i < nladder && d.Err() == nil; i++ {
		ladder = append(ladder, GenStat{
			Gen:      int(d.U32()),
			Covered:  int(d.U64()),
			Total:    int(d.U64()),
			New:      int(d.U64()),
			Accepted: int(d.U64()),
			Rejected: int(d.U64()),
			Failures: int(d.U64()),
		})
	}
	nfail := d.Count()
	failures := make([]Failure, 0, nfail)
	for i := 0; i < nfail && d.Err() == nil; i++ {
		failures = append(failures, Failure{
			Index: d.U64(),
			Gen:   int(d.U32()),
			Slot:  int(d.U32()),
			Seed:  d.U64(),
			Cell:  d.Str(),
			Label: d.Str(),
		})
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if len(pop) != spec.Population || gen < 0 || gen > spec.Generations {
		return fmt.Errorf("%w: geometry does not match spec", ErrState)
	}
	e.pop, e.cum, e.ladder, e.failures = pop, cum, ladder, failures
	e.gen, e.failTotal = gen, failTotal
	return nil
}

// saveState writes the explorer state atomically (durable.Format.Save).
func saveState(spec *Spec, e *engine) error {
	return stateFormat.Save(spec.Checkpoint, encodeState(spec, e))
}

// loadState restores e from spec.Checkpoint. It returns (false, nil)
// when the file does not exist — the fresh-start degradation Resume
// promises — and an ErrState-wrapped error on any corruption.
func loadState(spec *Spec, e *engine) (bool, error) {
	payload, err := stateFormat.Load(spec.Checkpoint)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = decodeState(spec, e, payload)
	}
	return err == nil, err
}

// removeState clears durable state for a fresh Execute: the state file
// and every per-generation campaign checkpoint the spec could have
// written, so a stale file from an earlier exploration of the same spec
// can never silently seed a "fresh" run.
func removeState(spec *Spec) {
	os.Remove(spec.Checkpoint)
	for g := 0; g < spec.Generations; g++ {
		removeGenCkpt(spec, g)
	}
}

// removeGenCkpt drops one committed generation's campaign checkpoint.
func removeGenCkpt(spec *Spec, gen int) {
	os.Remove(spec.genCkptPath(gen))
}
