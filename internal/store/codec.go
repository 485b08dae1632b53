// Package store implements incremental compilation support: canonical
// content hashing of pipeline-stage inputs, a deterministic binary codec for
// pipeline state ("design") snapshots, an in-memory per-stage memo table, a
// solver-instance result/basis cache, and a versioned on-disk
// content-addressed store that survives restarts.
//
// Everything here is deterministic by construction: maps are encoded in
// sorted key order, floats as IEEE-754 bit patterns, and the same byte
// encoder feeds both serialization and SHA-256 content addressing — two
// semantically identical values always produce identical bytes and identical
// keys.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// writer is an append-only deterministic binary encoder.
type writer struct {
	buf []byte
}

func (w *writer) uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *writer) varint(x int64)   { w.buf = binary.AppendVarint(w.buf, x) }
func (w *writer) int(x int)        { w.varint(int64(x)) }
func (w *writer) i64(x int64)      { w.varint(x) }

func (w *writer) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) f64(x float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(x))
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// reader decodes what writer encodes, and only that: a field in any other
// form than the writer's (an overlong varint, a bool byte other than 0 or 1)
// is malformed, so every value has one encoding and re-encodes to the bytes
// it was read from. The first malformed field latches err and every
// subsequent read returns a zero value, so decode paths only need one error
// check at the end.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("store: corrupt encoding: %s at offset %d", what, r.off)
	}
}

// overlong reports whether the n-byte varint at r.off ends in a zero group,
// which the writer's shortest form never does.
func (r *reader) overlong(n int) bool { return n > 1 && r.buf[r.off+n-1] == 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n <= 0:
		r.fail("truncated uvarint")
		return 0
	case r.overlong(n):
		r.fail("overlong uvarint")
		return 0
	}
	r.off += n
	return x
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	switch {
	case n <= 0:
		r.fail("truncated varint")
		return 0
	case r.overlong(n):
		r.fail("overlong varint")
		return 0
	}
	r.off += n
	return x
}

func (r *reader) int() int   { return int(r.varint()) }
func (r *reader) i64() int64 { return r.varint() }

// count reads an element count: at most one per byte left, since every
// element the writer counts takes at least one.
func (r *reader) count() int {
	n := r.int()
	if r.err == nil && (n < 0 || n > len(r.buf)-r.off) {
		r.fail("count out of range")
		return 0
	}
	return n
}

// slice reads the presence bit and element count the writer puts before a
// slice that may be nil: a nil slice has no elements.
func (r *reader) slice() (n int, nonNil bool) {
	nonNil = r.bool()
	n = r.count()
	if !nonNil && n != 0 {
		r.fail("elements in a nil slice")
	}
	return n, nonNil && r.err == nil
}

// ascending latches an error unless map key k follows prev (i > 0): the
// writer puts map keys in strictly increasing order.
func (r *reader) ascending(i, prev, k int) {
	if i > 0 && k <= prev {
		r.fail("map key out of order")
	}
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[r.off]
	if b > 1 {
		r.fail("bool byte above 1")
		return false
	}
	r.off++
	return b == 1
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float64")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return x
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) bytesField() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("truncated bytes")
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return b
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("store: corrupt encoding: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
