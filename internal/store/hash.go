package store

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"sara/internal/ir"
)

// FormatVersion is the on-disk and in-memory snapshot format version. It is
// mixed into every content address, so bumping it invalidates every cached
// design at once: old entries can never be decoded under a new format (the
// disk store additionally refuses to open a directory written by a different
// version — see Open).
const FormatVersion = 1

// Hasher accumulates a canonical byte encoding of one pipeline stage's
// inputs and produces its content address. Every stage key mixes in the
// format version, the stage name, and the previous stage's key, then the
// exact subset of program/spec/options state that stage reads.
type Hasher struct {
	w writer
}

// NewHasher starts a stage-key derivation. prev is the previous stage's key
// ("" for the first stage).
func NewHasher(stage, prev string) *Hasher {
	h := &Hasher{}
	h.w.int(FormatVersion)
	h.w.str(stage)
	h.w.str(prev)
	return h
}

// Int mixes an int.
func (h *Hasher) Int(x int) *Hasher { h.w.int(x); return h }

// I64 mixes an int64.
func (h *Hasher) I64(x int64) *Hasher { h.w.i64(x); return h }

// Bool mixes a bool.
func (h *Hasher) Bool(b bool) *Hasher { h.w.bool(b); return h }

// Str mixes a string.
func (h *Hasher) Str(s string) *Hasher { h.w.str(s); return h }

// F64 mixes a float64 by bit pattern.
func (h *Hasher) F64(x float64) *Hasher { h.w.f64(x); return h }

// Dur mixes a duration.
func (h *Hasher) Dur(d time.Duration) *Hasher { h.w.i64(int64(d)); return h }

// Sum returns the content address as a hex string.
func (h *Hasher) Sum() string {
	return HexDigest(sha256.Sum256(h.w.buf))
}

// HexDigest is the hex form of a SHA-256 sum, in one allocation.
func HexDigest(sum [sha256.Size]byte) string {
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}

// ProgramDigest returns a canonical content hash of the program. When
// includePar is false, every controller's parallelization factor is encoded
// as a fixed 1, producing a digest that is invariant under par-only edits —
// the consistency analysis never reads Par, so its stage key uses the
// par-free digest and survives par sweeps.
func ProgramDigest(p *ir.Program, includePar bool) string {
	var w writer
	w.int(FormatVersion)
	w.bool(includePar)
	encodeProgramCanonical(&w, p, includePar)
	return HexDigest(sha256.Sum256(w.buf))
}

func encodeProgramCanonical(w *writer, p *ir.Program, includePar bool) {
	w.str(p.Name)
	w.int(p.TypeBits)
	w.int(len(p.Ctrls))
	for _, c := range p.Ctrls {
		w.int(int(c.ID))
		w.int(int(c.Kind))
		w.str(c.Name)
		w.int(int(c.Parent))
		w.int(len(c.Children))
		for _, ch := range c.Children {
			w.int(int(ch))
		}
		w.int(c.Min)
		w.int(c.Step)
		w.int(c.Max)
		w.int(c.Trip)
		if includePar {
			w.int(c.Par)
		} else {
			w.int(1)
		}
		w.int(int(c.Clause))
		w.int(int(c.CondBlock))
		w.int(int(c.BoundsBlock))
		w.int(len(c.Ops))
		for _, op := range c.Ops {
			w.int(int(op.Kind))
			w.int(len(op.Inputs))
			for _, in := range op.Inputs {
				w.int(in)
			}
			w.int(int(op.Acc))
			w.bool(op.LCD)
		}
		w.int(len(c.Accesses))
		for _, a := range c.Accesses {
			w.int(int(a))
		}
	}
	w.int(len(p.Mems))
	for _, m := range p.Mems {
		w.int(int(m.ID))
		w.int(int(m.Kind))
		w.str(m.Name)
		w.int(len(m.Dims))
		for _, d := range m.Dims {
			w.int(d)
		}
		w.int(len(m.Accessors))
		for _, a := range m.Accessors {
			w.int(int(a))
		}
		w.int(m.MultiBuffer)
	}
	w.int(len(p.Accs))
	for _, a := range p.Accs {
		w.int(int(a.ID))
		w.int(int(a.Mem))
		w.int(int(a.Block))
		w.int(int(a.Dir))
		encodePattern(w, a.Pat)
		w.int(a.Vec)
		w.str(a.Name)
	}
}

func encodePattern(w *writer, pat ir.Pattern) {
	w.int(int(pat.Kind))
	w.bool(pat.Coeffs != nil)
	keys := make([]ir.CtrlID, 0, len(pat.Coeffs))
	for k := range pat.Coeffs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.int(len(keys))
	for _, k := range keys {
		w.int(int(k))
		w.int(pat.Coeffs[k])
	}
	w.int(pat.Offset)
}
