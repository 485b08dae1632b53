package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomKeys draws count pseudo-random cache-key-like strings from rng.
func randomKeys(rng *rand.Rand, count int) []string {
	keys := make([]string, count)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	}
	return keys
}

func memberNames(rng *rand.Rand, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://10.0.%d.%d:%d", rng.Intn(256), rng.Intn(256), 8000+rng.Intn(1000))
	}
	return names
}

// TestRingBalance: across randomized memberships and key sets, virtual
// nodes keep every member's share of the key space within a constant factor
// of fair. The bound (0.5x..1.6x of fair share) is loose enough to hold for
// any seed with 128 virtual nodes at these cluster sizes, and tight enough
// to catch a broken point distribution (a single hash per member routinely
// lands outside 0.3x..3x).
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(9) // 2..10 members
		members := memberNames(rng, n)
		ring := NewRing(members...)
		keys := randomKeys(rng, 20000)
		counts := map[string]int{}
		for _, k := range keys {
			counts[ring.Owner(k)]++
		}
		fair := float64(len(keys)) / float64(n)
		for _, m := range members {
			share := float64(counts[m]) / fair
			if share < 0.5 || share > 1.6 {
				t.Errorf("trial %d (%d members): %s owns %.2fx fair share (%d of %d keys)",
					trial, n, m, share, counts[m], len(keys))
			}
		}
	}
}

// TestRingJoinMovesOnlyToNewMember: adding a member remaps exactly the keys
// the new member takes over — every key whose owner changes must now map to
// the added node, and the moved fraction is about 1/(n+1), never more than
// twice that.
func TestRingJoinMovesOnlyToNewMember(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(7)
		members := memberNames(rng, n)
		ring := NewRing(members...)
		joined := fmt.Sprintf("http://10.1.0.%d:9000", trial)
		bigger := NewRing(append(members, joined)...)
		keys := randomKeys(rng, 10000)
		moved := 0
		for _, k := range keys {
			before, after := ring.Owner(k), bigger.Owner(k)
			if before == after {
				continue
			}
			moved++
			if after != joined {
				t.Fatalf("trial %d: key %s moved %s -> %s, but only the joining node %s may gain keys",
					trial, k, before, after, joined)
			}
		}
		expect := float64(len(keys)) / float64(n+1)
		if f := float64(moved); f > 2*expect {
			t.Errorf("trial %d (%d members): join moved %d keys, want about %.0f (minimal remapping)",
				trial, n, moved, expect)
		}
		if moved == 0 {
			t.Errorf("trial %d: join moved no keys; the new member owns nothing", trial)
		}
	}
}

// TestRingLeaveMovesOnlyOwnedKeys: removing a member remaps exactly the
// keys it owned; every other key keeps its owner.
func TestRingLeaveMovesOnlyOwnedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(6)
		members := memberNames(rng, n)
		ring := NewRing(members...)
		leaving := rng.Intn(n)
		left := members[leaving]
		kept := append(append([]string(nil), members[:leaving]...), members[leaving+1:]...)
		smaller := NewRing(kept...)
		if slices.Contains(smaller.Nodes(), left) {
			t.Fatalf("ring still contains removed member %s", left)
		}
		keys := randomKeys(rng, 10000)
		for _, k := range keys {
			before, after := ring.Owner(k), smaller.Owner(k)
			if before == left {
				if after == left {
					t.Fatalf("trial %d: key %s still owned by removed member", trial, k)
				}
				continue
			}
			if before != after {
				t.Fatalf("trial %d: key %s moved %s -> %s though its owner %s stayed in the ring",
					trial, k, before, after, before)
			}
		}
	}
}

// TestRingDeterministicAcrossConstruction: ownership is a pure function of
// the membership set — independent of list order or duplicate entries — so
// every node that was handed the same peer list agrees on every key.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	members := memberNames(rng, 5)
	ring := NewRing(members...)
	shuffled := append([]string(nil), members...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = append(shuffled, members[0], members[2]) // duplicates collapse
	other := NewRing(shuffled...)
	for _, k := range randomKeys(rng, 5000) {
		if a, b := ring.Owner(k), other.Owner(k); a != b {
			t.Fatalf("key %s: owner %s from one construction order, %s from another", k, a, b)
		}
	}
}

// TestRingEmptyAndSingle: degenerate memberships stay well-defined.
func TestRingEmptyAndSingle(t *testing.T) {
	if owner := NewRing().Owner("abc"); owner != "" {
		t.Errorf("empty ring owner = %q, want \"\"", owner)
	}
	solo := NewRing("http://a:1")
	for _, k := range randomKeys(rand.New(rand.NewSource(5)), 100) {
		if owner := solo.Owner(k); owner != "http://a:1" {
			t.Fatalf("single-member ring owner = %q", owner)
		}
	}
}
