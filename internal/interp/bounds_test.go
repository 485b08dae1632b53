package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sara/internal/ir"
	"sara/internal/workloads"
)

// enumeratedRange is addressRange by enumeration: the least and the greatest
// member of acc's AddressSet over the whole program. AddressSet samples the
// corners of a space larger than maxEnum, so both extremes stay exact for
// nests up to 16 loops deep.
func enumeratedRange(p *ir.Program, acc *ir.Access) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for a := range AddressSet(p, acc, 0) {
		lo, hi = min(lo, int64(a)), max(hi, int64(a))
	}
	return lo, hi
}

// assertMatchesEnumeration holds CheckBounds to enumeration: every checked
// access's analytic range equals its enumerated extremes, and CheckBounds
// reports the first access enumeration finds out of bounds, by the same
// extreme address. An access whose address arithmetic overflows int64, where
// the enumerator's int arithmetic wraps, must be refused as such.
func assertMatchesEnumeration(t *testing.T, name string, p *ir.Program) {
	t.Helper()
	want := ""
	for _, acc := range p.Accs {
		if !boundsChecked(p, acc) {
			continue
		}
		m := p.Mem(acc.Mem)
		lo, hi, ok := addressRange(p, acc)
		if !ok {
			if want == "" {
				want = fmt.Sprintf("interp: access %s to %s: address arithmetic overflows int64", acc.Name, m.Name)
			}
			continue
		}
		elo, ehi := enumeratedRange(p, acc)
		if lo != elo || hi != ehi {
			t.Errorf("%s: access %s: analytic range [%d, %d], enumerated [%d, %d]", name, acc.Name, lo, hi, elo, ehi)
		}
		addr := ehi
		if elo < 0 {
			addr = elo
		}
		if want == "" && (addr < 0 || addr >= m.Size()) {
			want = fmt.Sprintf("interp: access %s reaches %d outside %s[0,%d)", acc.Name, addr, m.Name, m.Size())
		}
	}
	got := ""
	if err := CheckBounds(p); err != nil {
		got = err.Error()
	}
	if got != want {
		t.Errorf("%s: CheckBounds says %q, enumeration %q", name, got, want)
	}
}

// TestCheckBoundsMatchesEnumeration is the bounds gate's oracle suite: every
// registered workload at par {1, 2, 3, 16, 64, 128} × scale {1, 8, 16}, each
// of which must also pass the gate without allocating, and seeded random
// nests, of which some must pass and some must not.
func TestCheckBoundsMatchesEnumeration(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			for _, par := range []int{1, 2, 3, 16, 64, 128} {
				for _, scale := range []int{1, 8, 16} {
					p := w.Build(workloads.Params{Par: par, Scale: scale})
					name := fmt.Sprintf("p%d/s%d", par, scale)
					assertMatchesEnumeration(t, name, p)
					if n := testing.AllocsPerRun(10, func() { CheckBounds(p) }); n != 0 {
						t.Errorf("%s: CheckBounds allocates %v times per call", name, n)
					}
				}
			}
		})
	}
	t.Run("random nests", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		const nests = 2000
		accepted := 0
		for i := 0; i < nests; i++ {
			p := randomNest(rng, 1+rng.Intn(6))
			assertMatchesEnumeration(t, fmt.Sprintf("nest %d", i), p)
			if CheckBounds(p) == nil {
				accepted++
			}
		}
		if accepted == 0 || accepted == nests {
			t.Errorf("%d of %d random nests pass the gate; the generator must produce both verdicts", accepted, nests)
		}
	})
}

// randomNest builds a chain of depth loops — counted ones with Min and Step
// of either sign or zero, and dynamic and do-while levels, whose iterators
// count from zero — and one to four blocks at random depths, each issuing an
// affine access (coefficients of either sign, zero or absent) or a constant
// one against an SRAM of random size. CheckBounds reads a loop's Min, Step
// and Trip only, so Max is left unset.
func randomNest(rng *rand.Rand, depth int) *ir.Program {
	p := ir.NewProgram("nest")
	chain := []ir.CtrlID{0}
	for d := 0; d < depth; d++ {
		kind := []ir.CtrlKind{ir.CtrlLoop, ir.CtrlLoop, ir.CtrlLoopDyn, ir.CtrlWhile}[rng.Intn(4)]
		l := p.AddCtrl(kind, fmt.Sprintf("L%d", d), chain[d])
		l.Trip = 1 + rng.Intn(6)
		if kind == ir.CtrlLoop {
			l.Min, l.Step = rng.Intn(21)-10, rng.Intn(9)-4
		}
		chain = append(chain, l.ID)
	}
	n := 1 + rng.Intn(4)
	for k := 0; k < n; k++ {
		blk := p.AddCtrl(ir.CtrlBlock, fmt.Sprintf("b%d", k), chain[1+rng.Intn(depth)])
		m := p.AddMem(ir.MemSRAM, fmt.Sprintf("m%d", k), 1+rng.Intn(1024))
		pat := ir.Pattern{Kind: ir.PatAffine, Offset: rng.Intn(256) - 16, Coeffs: map[ir.CtrlID]int{}}
		if rng.Intn(5) == 0 {
			pat.Kind = ir.PatConstant
		}
		for _, id := range chain[1:] {
			if rng.Intn(4) > 0 {
				pat.Coeffs[id] = rng.Intn(17) - 8
			}
		}
		p.AddAccess(blk.ID, m.ID, ir.Dir(rng.Intn(2)), pat, fmt.Sprintf("A%d", k))
	}
	return p
}

// TestCheckBoundsDeepNest: a hostile program must not hold a compile worker.
// The gate is linear in the loop depth, so a 64-deep nest checks in
// microseconds, where enumeration, even sampling only corners, visits 2^64
// points. The best of five calls is timed, so a descheduled thread cannot
// fail the test.
func TestCheckBoundsDeepNest(t *testing.T) {
	p := ir.NewProgram("deep")
	m := p.AddMem(ir.MemSRAM, "m", 256)
	coeffs := map[ir.CtrlID]int{}
	parent := ir.CtrlID(0)
	for d := 0; d < 64; d++ {
		l := p.AddCtrl(ir.CtrlLoop, fmt.Sprintf("L%d", d), parent)
		l.Min, l.Max, l.Step, l.Trip = 0, 3, 1, 3
		coeffs[l.ID] = 2
		parent = l.ID
	}
	blk := p.AddCtrl(ir.CtrlBlock, "w", parent)
	p.AddAccess(blk.ID, m.ID, ir.Write, ir.Pattern{Kind: ir.PatAffine, Coeffs: coeffs}, "W")
	var err error
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		err = CheckBounds(p)
		best = min(best, time.Since(start))
	}
	if best > 10*time.Millisecond {
		t.Errorf("64-deep nest checked in %v, want under 10 ms", best)
	}
	// 64 loops × coefficient 2 × last iterator 2 = 256, one past the end.
	if want := "interp: access W reaches 256 outside m[0,256)"; err == nil || err.Error() != want {
		t.Errorf("CheckBounds = %v, want %q", err, want)
	}
}

// TestCheckBoundsRefusesOverflow: an access whose address arithmetic leaves
// int64 is refused by name, on either side and at every step (iterator,
// coefficient product, offset sum); an extreme of exactly MaxInt64 is an
// ordinary out-of-bounds address.
func TestCheckBoundsRefusesOverflow(t *testing.T) {
	const overflow = "interp: access W to m: address arithmetic overflows int64"
	for _, tc := range []struct {
		name              string
		min, coef, offset int
		want              string
	}{
		{"coefficient", 0, math.MaxInt64 / 2, 0, overflow},
		{"negative coefficient", 0, math.MinInt64 / 2, 0, overflow},
		{"iterator", math.MaxInt64 - 2, 1, 0, overflow},
		{"offset", 0, 1, math.MaxInt64 - 2, overflow},
		{"at the limit", 0, 1, math.MaxInt64 - 3, "interp: access W reaches 9223372036854775807 outside m[0,16)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := ir.NewProgram("wide")
			m := p.AddMem(ir.MemSRAM, "m", 16)
			l := p.AddCtrl(ir.CtrlLoop, "i", 0)
			l.Min, l.Step, l.Trip = tc.min, 1, 4
			blk := p.AddCtrl(ir.CtrlBlock, "b", l.ID)
			pat := ir.Pattern{Kind: ir.PatAffine, Offset: tc.offset, Coeffs: map[ir.CtrlID]int{l.ID: tc.coef}}
			p.AddAccess(blk.ID, m.ID, ir.Write, pat, "W")
			if err := CheckBounds(p); err == nil || err.Error() != tc.want {
				t.Errorf("CheckBounds = %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzCheckBounds decodes a loop nest from the input (fuzzNest) and checks
// that CheckBounds never panics and agrees with enumeration. Nests are at
// most 8 deep, so enumeration is exact — in full up to maxEnum iterations,
// by corners beyond. The seed corpus in testdata/fuzz/FuzzCheckBounds runs
// under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzCheckBounds -fuzztime 30s ./internal/interp/
func FuzzCheckBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		assertMatchesEnumeration(t, "fuzz", fuzzNest(data))
	})
}

// fuzzNest decodes a program from fuzz input: a depth byte (a chain of up to
// 8 loops); per loop a kind byte (counted, dynamic or do-while), a trip count
// byte (1–256) and, for a counted loop, Min and Step; then up to four
// writes, each a byte choosing its block's depth, a memory size byte, a
// pattern byte (constant or affine), an offset and one coefficient per loop.
// Values are signed bytes that the byte after may shift toward the int64
// limits, so the overflow refusal is reachable. Input that runs out reads as
// zeros.
func fuzzNest(data []byte) *ir.Program {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	wide := func() int {
		v := int(int8(next()))
		if s := next(); s >= 0xc0 {
			v <<= s % 64
		}
		return v
	}
	p := ir.NewProgram("fuzz")
	chain := []ir.CtrlID{0}
	depth := int(next() % 9)
	for d := 0; d < depth; d++ {
		kind := [...]ir.CtrlKind{ir.CtrlLoop, ir.CtrlLoop, ir.CtrlLoopDyn, ir.CtrlWhile}[next()%4]
		l := p.AddCtrl(kind, fmt.Sprintf("L%d", d), chain[d])
		l.Trip = 1 + int(next())
		if kind == ir.CtrlLoop {
			l.Min = wide()
			l.Step = wide()
		}
		chain = append(chain, l.ID)
	}
	for k := 0; k < 4 && len(data) > 0; k++ {
		blk := p.AddCtrl(ir.CtrlBlock, fmt.Sprintf("b%d", k), chain[int(next())%len(chain)])
		m := p.AddMem(ir.MemSRAM, fmt.Sprintf("m%d", k), 1+4*int(next()))
		pat := ir.Pattern{Kind: ir.PatAffine, Coeffs: map[ir.CtrlID]int{}}
		if next()%3 == 0 {
			pat.Kind = ir.PatConstant
		}
		pat.Offset = wide()
		for _, id := range chain[1:] {
			pat.Coeffs[id] = wide()
		}
		p.AddAccess(blk.ID, m.ID, ir.Write, pat, fmt.Sprintf("W%d", k))
	}
	return p
}
