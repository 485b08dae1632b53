package dram

import (
	"math/big"
	"testing"

	"sara/internal/arch"
)

// ratChannel is the reference channel: its queue end in exact rational
// cycles.
type ratChannel struct {
	busy  *big.Rat
	stall int64
}

// floorRat and ceilRat round a non-negative rational to an integer.
func floorRat(r *big.Rat) int64 {
	return new(big.Int).Quo(r.Num(), r.Denom()).Int64()
}

func ceilRat(r *big.Rat) int64 {
	n := new(big.Int).Add(r.Num(), r.Denom())
	n.Sub(n, big.NewInt(1))
	return n.Quo(n, r.Denom()).Int64()
}

// FuzzDRAMExact holds the tick model to a math/big.Rat reference of the same
// channel semantics: requests are served in order at the spec's bandwidth, a
// request waits the whole cycles its channel is still busy, and completes at
// the first cycle boundary after its transfer plus the unloaded latency.
//
// The input picks a preset (first byte, HBM2 when even, DDR3 when odd), then
// four bytes per operation: flags (bit 0 coalesced, bit 1 a Shift instead of
// a request), channel, size (bytes−1) and the cycles the clock advances
// first. Every done cycle, stall count, NextReady and Backlog must agree.
func FuzzDRAMExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spec := arch.SARA20x20().DRAM
		if data[0]%2 == 1 {
			spec = arch.PlasticineV1().DRAM
		}
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		bw := new(big.Rat).SetFloat64(spec.BytesPerCyclePerChannel)
		ref := make([]ratChannel, spec.Channels)
		for i := range ref {
			ref[i].busy = new(big.Rat)
		}
		lat := int64(spec.LatencyCycles)
		var now int64
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			flags, ch, size, gap := ops[0], int(ops[1])%spec.Channels, int(ops[2])+1, int64(ops[3])
			now += gap
			c := &ref[ch]
			if flags&2 != 0 {
				m.Shift(ch, gap)
				c.busy.Add(c.busy, new(big.Rat).SetInt64(gap))
			} else {
				coalesced := flags&1 != 0
				var done int64
				if coalesced {
					done = m.RequestCoalesced(ch, size, now)
				} else {
					done = m.Request(ch, size, now)
				}
				b := size
				if !coalesced {
					b = (size + spec.BurstBytes - 1) / spec.BurstBytes * spec.BurstBytes
				}
				start := new(big.Rat).SetInt64(now)
				if c.busy.Cmp(start) > 0 {
					c.stall += floorRat(new(big.Rat).Sub(c.busy, start))
					start.Set(c.busy)
				}
				c.busy = start.Add(start, new(big.Rat).Quo(new(big.Rat).SetInt64(int64(b)), bw))
				want := max(ceilRat(c.busy)+lat, now+1)
				if done != want {
					t.Fatalf("request of %d B on channel %d at cycle %d done at %d, want %d", size, ch, now, done, want)
				}
			}
			if got, want := m.NextReady(ch), ceilRat(c.busy); got != want {
				t.Fatalf("channel %d at cycle %d: NextReady %d, want %d", ch, now, got, want)
			}
			// Backlog in cycles is max(busy − now, 0); in ticks, tpc times it.
			backlog := new(big.Rat).Sub(c.busy, new(big.Rat).SetInt64(now))
			if backlog.Sign() < 0 {
				backlog.SetInt64(0)
			}
			backlog.Mul(backlog, new(big.Rat).SetInt64(m.tpc))
			if got := m.Backlog(ch, now); !backlog.IsInt() || got != backlog.Num().Int64() {
				t.Fatalf("channel %d at cycle %d: Backlog %d ticks, want %s", ch, now, got, backlog.RatString())
			}
		}
		for ch := range ref {
			if _, _, stall := m.Counters(ch); stall != ref[ch].stall {
				t.Errorf("channel %d: %d stall cycles, want %d", ch, stall, ref[ch].stall)
			}
		}
	})
}
