package server

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring over the compile content-address space.
// Every cluster member is projected onto the ring at virtualNodes points
// (virtual nodes smooth out the arc-length variance of a single hash per
// member), and a cache key is owned by the member whose point follows the
// key's hash clockwise. Because the point positions depend only on the
// member names, every node that was given the same peer list computes the
// same owner for every key — no coordination service needed, which is what
// makes the proxy protocol safe to bootstrap from flags alone.
//
// A Ring is immutable after construction; a membership change builds a new
// ring, which keeps ownership lookups lock-free and makes the
// minimal-remapping property easy to state: between a ring and its
// one-member extension, the only keys whose owner differs are those the new
// member took over.
type Ring struct {
	points []ringPoint // sorted ascending by hash
	nodes  []string    // sorted member names
}

type ringPoint struct {
	hash uint64
	node string
}

// virtualNodes is the per-member point count: 128 keeps the max/min
// arc-share ratio under ~1.5x for small clusters.
const virtualNodes = 128

// NewRing builds a ring over the given members; duplicate member names
// collapse to one.
func NewRing(members ...string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.nodes = append(r.nodes, m)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*virtualNodes)
	for _, m := range r.nodes {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit hash collision between distinct members is
		// vanishingly rare; break it by name so all nodes still agree.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// pointHash places virtual node i of a member on the ring. The member name
// and index are length-prefixed so distinct (member, i) pairs can never
// produce the same input bytes.
func pointHash(member string, i int) uint64 {
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(len(member)))
	binary.BigEndian.PutUint32(buf[8:], uint32(i))
	h := sha256.New()
	h.Write(buf[:])
	h.Write([]byte(member))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// keyHash places a cache key on the ring. Keys are already SHA-256 hex
// digests, but hashing again keeps Owner correct for arbitrary strings and
// decouples ring position from the key encoding.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte("key\x00" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member owning key: the first ring point at or after the
// key's hash, wrapping past the top of the hash space to the first point.
// An empty ring owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the sorted member names.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}
