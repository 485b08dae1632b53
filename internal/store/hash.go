package store

import (
	"crypto/sha256"
	"encoding/hex"
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
func (h *Hasher) I64(x int64) *Hasher { h.w.varint(x); return h }

// Bool mixes a bool.
func (h *Hasher) Bool(b bool) *Hasher { h.w.bool(b); return h }

// Str mixes a string.
func (h *Hasher) Str(s string) *Hasher { h.w.str(s); return h }

// F64 mixes a float64 by bit pattern.
func (h *Hasher) F64(x float64) *Hasher { h.w.f64(x); return h }

// Dur mixes a duration.
func (h *Hasher) Dur(d time.Duration) *Hasher { h.w.varint(int64(d)); return h }

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
// par-free digest and survives par sweeps. The program walks as it does in
// an artifact.
func ProgramDigest(p *ir.Program, includePar bool) string {
	c := &codec{parFree: !includePar}
	c.w.int(FormatVersion)
	c.w.bool(includePar)
	walkProgram(c, p)
	return HexDigest(sha256.Sum256(c.w.buf))
}
