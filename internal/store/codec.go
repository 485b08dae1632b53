// Package store implements incremental compilation support: canonical
// content hashing of pipeline-stage inputs, a deterministic binary codec for
// pipeline state ("design") snapshots, an in-memory per-stage memo table, a
// solver-instance result/basis cache, and a versioned on-disk
// content-addressed store that survives restarts.
//
// Everything here is deterministic by construction: maps are encoded in
// sorted key order, floats as IEEE-754 bit patterns, and each stored type's
// format is one walk (see codec) that both writes and reads it and also
// feeds SHA-256 content addressing — two semantically identical values
// always produce identical bytes and identical keys.
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sara/internal/ir"
)

// writer is an append-only deterministic binary encoder.
type writer struct {
	buf []byte
}

func (w *writer) uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *writer) varint(x int64)   { w.buf = binary.AppendVarint(w.buf, x) }
func (w *writer) int(x int)        { w.varint(int64(x)) }

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

// count reads an element count: at most one per byte left, since every
// element the writer counts takes at least one.
func (r *reader) count() int {
	n := r.varint()
	if r.err == nil && (n < 0 || n > int64(len(r.buf)-r.off)) {
		r.fail("count out of range")
		return 0
	}
	return int(n)
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

// span reads a uvarint length and returns that many bytes, aliasing buf.
func (r *reader) span() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("truncated string")
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
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

// codec walks one stored type's fields in format order: it writes each field
// when r is nil and reads into it otherwise. Every stored type has one walk
// (walkSnapshot, walkArtifact, walkProgram, walkSolverResult, ...), so its
// format is listed once and its writer and reader cannot drift apart. The
// reader's strictness checks live in reader and in the helpers below —
// count, some and sorted — and nowhere else. The few steps that read and
// write differently stay explicit `if c.r != nil` branches in their walks.
type codec struct {
	w writer
	r *reader
	// prog is the program a decoded plan and graph are re-attached to.
	prog *ir.Program
	// parFree writes every controller's Par as 1 (ProgramDigest).
	parFree bool
}

// write encodes v with its walk.
func write[T any](v *T, walk func(*codec, *T)) []byte {
	c := &codec{}
	walk(c, v)
	return c.w.buf
}

// read decodes data with walk into a fresh T. prog is the program a decoded
// plan and graph refer to.
func read[T any](data []byte, prog *ir.Program, walk func(*codec, *T)) (*T, error) {
	c := &codec{r: &reader{buf: data}, prog: prog}
	v := new(T)
	walk(c, v)
	if err := c.r.done(); err != nil {
		return nil, err
	}
	return v, nil
}

// header walks a record's magic (none when "") and format version; reading
// refuses any other.
func (c *codec) header(magic, what string) {
	if magic != "" {
		m := magic
		c.str(&m)
		if c.r != nil && c.r.err == nil && m != magic {
			c.r.err = fmt.Errorf("store: bad %s magic %q", what, m)
		}
	}
	v := FormatVersion
	num(c, &v)
	if c.r != nil && c.r.err == nil && v != FormatVersion {
		c.r.err = fmt.Errorf("store: %s format version %d, this build reads %d", what, v, FormatVersion)
	}
}

// num walks an integer (an int, an ID or enum over int, an int64 or a
// time.Duration) as a zig-zag varint.
func num[T ~int | ~int64](c *codec, x *T) {
	if c.r != nil {
		*x = T(c.r.varint())
	} else {
		c.w.varint(int64(*x))
	}
}

func (c *codec) bool(x *bool) {
	if c.r != nil {
		*x = c.r.bool()
	} else {
		c.w.bool(*x)
	}
}

func (c *codec) f64(x *float64) {
	if c.r != nil {
		*x = c.r.f64()
	} else {
		c.w.f64(*x)
	}
}

func (c *codec) str(x *string) {
	if c.r != nil {
		*x = string(c.r.span())
	} else {
		c.w.str(*x)
	}
}

// bytes walks a length-prefixed byte string; a read one aliases the input.
func (c *codec) bytes(x *[]byte) {
	if c.r != nil {
		*x = c.r.span()
	} else {
		c.w.uvarint(uint64(len(*x)))
		c.w.buf = append(c.w.buf, *x...)
	}
}

// count walks an element count.
func (c *codec) count(n *int) {
	if c.r != nil {
		*n = c.r.count()
	} else {
		c.w.int(*n)
	}
}

// some walks the presence bit before a slice or map that may be nil and
// reports whether its count and elements follow. They always do when
// writing (a nil one writes a zero count); a nil one read back must carry
// that zero count.
func (c *codec) some(nonNil bool) bool {
	c.bool(&nonNil)
	if nonNil || c.r == nil {
		return true
	}
	if c.r.count() != 0 {
		c.r.fail("elements in a nil slice")
	}
	return false
}

// list walks a count-prefixed slice, element by element.
func list[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	n := len(*s)
	c.count(&n)
	if c.r != nil {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// nilList walks a slice that may be nil: a presence bit, then as list.
func nilList[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	if c.some(*s != nil) {
		list(c, s, elem)
	} else {
		*s = nil
	}
}

// ptr walks the target of a pointer that is never nil; reading allocates it.
func ptr[T any](c *codec, p **T, walk func(*codec, *T)) {
	if c.r != nil {
		*p = new(T)
	}
	walk(c, *p)
}

// maybe walks a pointer that may be nil: a presence bit, then as ptr.
func maybe[T any](c *codec, p **T, walk func(*codec, *T)) {
	some := *p != nil
	c.bool(&some)
	if some {
		ptr(c, p, walk)
	}
}

// refs walks a count-prefixed slice of pointers; with nilable set each one
// may be nil (a removed entity's slot), as maybe.
func refs[T any](c *codec, s *[]*T, nilable bool, walk func(*codec, *T)) {
	n := len(*s)
	c.count(&n)
	if c.r != nil {
		*s = make([]*T, n)
	}
	for i := range *s {
		if nilable {
			maybe(c, &(*s)[i], walk)
		} else {
			ptr(c, &(*s)[i], walk)
		}
	}
}

// sorted walks a map as a count, then its entries in ascending key order;
// reading refuses a key that does not follow the one before it, so a map
// has one encoding.
func sorted[K cmp.Ordered, V any](c *codec, m *map[K]V, key func(*codec, *K), val func(*codec, *V)) {
	type entry struct {
		k K
		v V
	}
	if c.r == nil {
		es := make([]entry, 0, len(*m))
		for k, v := range *m {
			es = append(es, entry{k, v})
		}
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.k, b.k) })
		c.w.int(len(es))
		for i := range es {
			key(c, &es[i].k)
			val(c, &es[i].v)
		}
		return
	}
	n := c.r.count()
	*m = make(map[K]V, n)
	e := new(entry)
	for i := 0; i < n; i++ {
		prev := e.k
		key(c, &e.k)
		if i > 0 && e.k <= prev {
			c.r.fail("map key out of order")
		}
		val(c, &e.v)
		(*m)[e.k] = e.v
	}
}
