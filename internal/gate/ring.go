package gate

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over replica names. Each replica owns
// VNodes points on a 64-bit circle; a model name hashes to a point and
// walks clockwise to the first replica point. Adding or removing one
// replica moves only the keys that hashed into its arcs (~1/N of the
// keyspace), so a topology edit never reshuffles the whole fleet — the
// property that makes per-replica model caches worth having.
//
// The ring is immutable after construction; topology reloads build a
// fresh ring and swap it atomically.
type Ring struct {
	points []ringPoint
	names  []string
}

type ringPoint struct {
	hash uint64
	name string
}

// DefaultVNodes is the virtual-node count per replica when the topology
// file does not set one. 128 points keeps the maximum replica load
// within a few percent of the mean for small fleets.
const DefaultVNodes = 128

// NewRing builds a ring over the given replica names. vnodes <= 0 means
// DefaultVNodes. Names must be unique (the topology parser enforces it).
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		names:  append([]string(nil), names...),
	}
	sort.Strings(r.names)
	for _, name := range r.names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(name + "#" + strconv.Itoa(i)),
				name: name,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break identical hashes by name so the ring order is
		// deterministic whatever the insertion order.
		return r.points[a].name < r.points[b].name
	})
	return r
}

// hashKey is FNV-1a 64 run through a murmur3-style avalanche finalizer.
// FNV alone is stable across processes and Go versions (maphash is not;
// routing must agree between gate restarts) but clusters badly on the
// short structured vnode keys this ring feeds it — measured ~60% of the
// keyspace landing on one replica of four. The finalizer spreads every
// input bit over the whole word, bringing arc shares within a few
// percent of uniform, and is just as deterministic.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of distinct replicas on the ring.
func (r *Ring) Len() int { return len(r.names) }

// Names returns the replica names on the ring, sorted.
func (r *Ring) Names() []string { return r.names }

// Order returns up to n distinct replicas in preference order for key:
// the owner first, then the successors a failover walks to. n <= 0 or
// n > Len means every replica.
func (r *Ring) Order(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.names) {
		n = len(r.names)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
