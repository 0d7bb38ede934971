// Consistent-hash session partitioning: each session key hashes to a point
// on a ring of virtual nodes, and the first N distinct physical nodes
// clockwise from that point own the session (N=2 replica routing in
// cdn.Network). Virtual nodes keep the partition sizes within a few percent
// of even, and adding or removing one node moves only ~1/nodes of the
// keyspace.
package fleet

import (
	"fmt"
	"sort"

	"botdetect/internal/shard"
)

// Ring is an immutable consistent-hash ring; build one with NewRing and
// share it freely (all methods are read-only).
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// vnodes is the number of virtual ring points per node.
const vnodes = 64

// NewRing builds a ring over the given node names with vnodes virtual
// points per node.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for i, name := range r.nodes {
		for v := 0; v < vnodes; v++ {
			h := mix64(shard.HashString(fmt.Sprintf("%s#%d", name, v)))
			r.points = append(r.points, ringPoint{hash: h, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// mix64 is a splitmix64-style finaliser: the raw FNV hashes both vnode
// labels and session keys arrive with have weak high bits on short inputs,
// and ring placement lives entirely in the high bits. Both point placement
// and lookups mix through this, so either side's input quality is irrelevant.
func mix64(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// start returns the index of the first ring point at or after h's mixed
// placement.
func (r *Ring) start(h uint64) int {
	h = mix64(h)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Primary returns the first owner for hash h.
func (r *Ring) Primary(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.start(h)].node]
}

// OwnersAppend appends the first n distinct owners for hash h to buf and
// returns it — allocation-free when buf has capacity (the serve path passes
// a stack-backed slice).
func (r *Ring) OwnersAppend(h uint64, n int, buf []string) []string {
	if len(r.points) == 0 || n <= 0 {
		return buf
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	start := r.start(h)
	base := len(buf)
	for i := 0; i < len(r.points) && len(buf)-base < n; i++ {
		name := r.nodes[r.points[(start+i)%len(r.points)].node]
		dup := false
		for _, have := range buf[base:] {
			if have == name {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, name)
		}
	}
	return buf
}
