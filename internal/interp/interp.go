// Package interp is a reference interpreter over the frontend IR's address
// semantics: it enumerates the concrete addresses an affine access touches,
// per iteration of any enclosing loop. The compiler relies on span *analysis*
// (ir.Pattern.Span) to relax CMMC credits — the A(R) ⊆ A(W) condition of
// paper §III-A1 — and to size scratchpads; this interpreter provides ground
// truth to validate those analyses against, access by access:
//
//   - Bounds: every address an access generates falls inside its memory.
//     CheckBounds, the compile-time gate, computes each access's extreme
//     addresses analytically; the enumeration is its test oracle.
//   - Coverage: wherever the consistency pass relaxed a credit beyond 1, the
//     later accessor's address set per iteration of the LCD loop really is
//     covered by the earlier accessor's.
package interp

import (
	"fmt"
	"math"

	"sara/internal/consistency"
	"sara/internal/ir"
)

// maxEnum bounds the iteration-space enumeration per access so validation of
// paper-scale programs stays fast; loops beyond the cap are sampled at their
// first and last iterations (affine extremes live at the corners).
const maxEnum = 1 << 16

// AddressSet enumerates the addresses an access touches during one iteration
// of the controller anc (for every assignment of loops outside anc the set
// is the same up to the offset contributed by those loops, which affine
// coverage comparisons may ignore because both accessors share them).
// Returns nil for non-affine (random) patterns.
func AddressSet(p *ir.Program, acc *ir.Access, anc ir.CtrlID) map[int]bool {
	switch acc.Pat.Kind {
	case ir.PatRandom:
		return nil
	case ir.PatConstant:
		return map[int]bool{acc.Pat.Offset: true}
	}
	// Collect the loops strictly below anc enclosing the access.
	var loops []*ir.Ctrl
	for id := acc.Block; id != anc && id != ir.NoCtrl; id = p.Ctrl(id).Parent {
		c := p.Ctrl(id)
		if c.IsLoop() {
			loops = append(loops, c)
		}
	}
	out := map[int]bool{}
	// Cartesian enumeration with corner sampling for huge spaces.
	total := 1
	for _, l := range loops {
		total *= l.Trip
		if total > maxEnum {
			break
		}
	}
	idx := make([]int, len(loops))
	var rec func(d int)
	rec = func(d int) {
		if len(out) > maxEnum {
			return
		}
		if d == len(loops) {
			addr := acc.Pat.Offset
			for i, l := range loops {
				coef := 0
				if acc.Pat.Coeffs != nil {
					coef = acc.Pat.Coeffs[l.ID]
				}
				if acc.Pat.Kind == ir.PatStreaming && coef == 0 {
					coef = 1
				}
				iter := l.Min + idx[i]*l.Step
				if l.Kind != ir.CtrlLoop {
					iter = idx[i]
				}
				addr += coef * iter
			}
			out[addr] = true
			return
		}
		l := loops[d]
		if total <= maxEnum {
			for k := 0; k < l.Trip; k++ {
				idx[d] = k
				rec(d + 1)
			}
			return
		}
		// Corner sampling.
		for _, k := range []int{0, l.Trip - 1} {
			idx[d] = k
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// boundsChecked reports whether CheckBounds checks acc: DRAM accesses are
// exempt (their address is the stream position, bounded by construction),
// as are streaming and random patterns.
func boundsChecked(p *ir.Program, acc *ir.Access) bool {
	return p.Mem(acc.Mem).Kind != ir.MemDRAM && acc.Pat.Kind != ir.PatRandom && acc.Pat.Kind != ir.PatStreaming
}

// CheckBounds verifies every statically analyzable access of a valid program
// stays inside its memory. The check is analytic — O(loops) per access and
// allocation-free (see addressRange) — and names an out-of-bounds access by
// its extreme address: the lowest if that is negative, else the highest. An
// access whose address arithmetic overflows int64 is refused as such.
func CheckBounds(p *ir.Program) error {
	for _, acc := range p.Accs {
		if !boundsChecked(p, acc) {
			continue
		}
		m := p.Mem(acc.Mem)
		lo, hi, ok := addressRange(p, acc)
		if !ok {
			return fmt.Errorf("interp: access %s to %s: address arithmetic overflows int64", acc.Name, m.Name)
		}
		addr := hi
		if lo < 0 {
			addr = lo
		}
		if addr < 0 || addr >= m.Size() {
			return fmt.Errorf("interp: access %s reaches %d outside %s[0,%d)",
				acc.Name, addr, m.Name, m.Size())
		}
	}
	return nil
}

// addressRange returns the lowest and highest address a constant or affine
// access reaches over every iteration of its enclosing loops. An affine
// function over a box of iterators takes its extremes at the box's corners
// (AddressSet's corner sampling relies on the same fact), so the range is the
// offset plus, per loop, the smaller and the larger of coef·first and
// coef·last iterator. ok is false when any step of that arithmetic — an
// iterator, a product, or a partial sum taken innermost loop first —
// overflows int64.
func addressRange(p *ir.Program, acc *ir.Access) (lo, hi int64, ok bool) {
	lo, hi, ok = int64(acc.Pat.Offset), int64(acc.Pat.Offset), true
	if acc.Pat.Kind == ir.PatConstant {
		return lo, hi, true
	}
	for id := acc.Block; id != 0 && id != ir.NoCtrl; id = p.Ctrl(id).Parent {
		l := p.Ctrl(id)
		coef := int64(acc.Pat.Coeffs[id])
		if !l.IsLoop() || coef == 0 {
			continue
		}
		// A counted loop's iterator runs Min, Min+Step, …; dynamic and
		// do-while loops count theirs from zero.
		first, last := int64(0), int64(l.Trip-1)
		if l.Kind == ir.CtrlLoop {
			first = int64(l.Min)
			last = checkedAdd(first, checkedMul(last, int64(l.Step), &ok), &ok)
		}
		a, b := checkedMul(coef, first, &ok), checkedMul(coef, last, &ok)
		if a > b {
			a, b = b, a
		}
		lo, hi = checkedAdd(lo, a, &ok), checkedAdd(hi, b, &ok)
	}
	return lo, hi, ok
}

// checkedAdd returns a+b, clearing *ok if the sum overflows int64.
func checkedAdd(a, b int64, ok *bool) int64 {
	s := a + b
	if (s > a) != (b > 0) {
		*ok = false
	}
	return s
}

// checkedMul returns a·b, clearing *ok if the product overflows int64.
func checkedMul(a, b int64, ok *bool) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || (a == math.MinInt64 && b == -1) {
		*ok = false
	}
	return c
}

// Violation reports one unsound credit relaxation.
type Violation struct {
	Mem      string
	Src, Dst string
	Loop     string
	// Uncovered is a witness address the later accessor touches that the
	// earlier one does not.
	Uncovered int
}

func (v Violation) String() string {
	return fmt.Sprintf("mem %s: credit between %s and %s relaxed over loop %s but address %d is not covered",
		v.Mem, v.Src, v.Dst, v.Loop, v.Uncovered)
}

// CheckRelaxations validates every relaxed credit in the plan against
// enumerated address sets: for a backward edge with Init > 1 on loop L, the
// destination accessor's per-L-iteration address set must be a subset of the
// source accessor's (the paper's multibuffering soundness condition). Edges
// whose accessors enumerate identically offset sets are accepted.
func CheckRelaxations(p *ir.Program, plan *consistency.Plan) []Violation {
	var out []Violation
	for _, mp := range plan.Mems {
		m := p.Mem(mp.Mem)
		for _, d := range mp.Backward {
			if d.Init <= 1 {
				continue
			}
			// RAR credits only serialize the PMU's single read stream; two
			// reads carry no data hazard, so coverage is irrelevant.
			if d.Kind == consistency.RAR {
				continue
			}
			// Backward edge Src ~> Dst means Dst executed first in program
			// order; Src is the later accessor whose span must be covered.
			first := p.Access(d.Dst)
			second := p.Access(d.Src)
			setFirst := AddressSet(p, first, d.Loop)
			setSecond := AddressSet(p, second, d.Loop)
			if setFirst == nil || setSecond == nil {
				out = append(out, Violation{
					Mem: m.Name, Src: second.Name, Dst: first.Name,
					Loop: p.Ctrl(d.Loop).Name, Uncovered: -1,
				})
				continue
			}
			for addr := range setSecond {
				if !setFirst[addr] {
					out = append(out, Violation{
						Mem: m.Name, Src: second.Name, Dst: first.Name,
						Loop: p.Ctrl(d.Loop).Name, Uncovered: addr,
					})
					break
				}
			}
		}
	}
	return out
}
