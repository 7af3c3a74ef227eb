// Front-end request routing. Every app's replica set sits behind one
// Router; the serving tier asks it which replica takes the next request.
// Three policies cover the classic trade-offs: weighted round-robin
// (stateless spread), least-loaded (reactive spread), and consistent
// hashing with bounded load (sticky keys — sessions, users, cache
// affinity — without letting a hot shard melt). All three refuse
// quarantined replicas, which is how the health state machine (the PR 4
// design, reused here across hosts) turns into routing decisions: a dead
// host's replicas are quarantined and traffic flows around them.
//
// A Router has one owner, as a des.Loop does: the cluster drives each
// app's router from its one event-loop goroutine, and a campaign's
// concurrent arms each build a cluster of their own. It is not safe for
// concurrent use, so a request's Route and AddLoad take no lock.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"tpusim/internal/runtime"
)

// RouterPolicy selects the routing algorithm.
type RouterPolicy int

const (
	// WeightedRoundRobin spreads requests in proportion to replica weight
	// using the smooth WRR scheme (each pick leaves the chosen replica's
	// accumulator lowest, so picks interleave instead of bursting).
	WeightedRoundRobin RouterPolicy = iota
	// LeastLoaded picks the routable replica with the fewest outstanding
	// requests, preferring Healthy over Degraded, lowest id on ties.
	LeastLoaded
	// BoundedHash is consistent hashing with bounded load: a key maps to a
	// ring position and walks clockwise to the first replica that is
	// routable and under the load bound c x mean. Keys are sticky across
	// replica joins/leaves (bounded movement) and no replica takes more
	// than c times its fair share.
	BoundedHash
)

var policyNames = map[RouterPolicy]string{
	WeightedRoundRobin: "wrr",
	LeastLoaded:        "least-loaded",
	BoundedHash:        "bounded-hash",
}

// String names the policy ("wrr", "least-loaded", "bounded-hash").
func (p RouterPolicy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name.
func ParsePolicy(s string) (RouterPolicy, error) {
	for p, n := range policyNames {
		if n == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown router policy %q (want wrr, least-loaded or bounded-hash)", s)
}

// vnodes is the virtual-node count per replica on the hash ring. 64 keeps
// the per-replica arc variance small enough that the bounded-load walk
// rarely engages under even load.
const vnodes = 64

// endpoint is one routable replica as the router tracks it.
type endpoint struct {
	id      int
	weight  float64
	state   runtime.HealthState
	load    int64
	current float64 // smooth-WRR accumulator
	walk    uint64  // the last bounded-hash walk that passed this endpoint
}

// ringSlot is one virtual node on the consistent-hash ring.
type ringSlot struct {
	hash uint64
	ep   *endpoint
}

// Router routes request keys to replica ids under one policy. It is not
// safe for concurrent use.
type Router struct {
	policy RouterPolicy
	eps    []*endpoint // by replica id; nil where none is registered
	n      int         // registered endpoints
	stale  bool        // membership changed since order, ring and index were built
	order  []*endpoint // sorted by id; valid while !stale
	ring   []ringSlot  // sorted by hash; valid while !stale
	// index[b] is the first ring slot whose hash has top bits >= b, so a
	// lookup starts within a few slots of its answer; valid while !stale.
	index []int32
	shift uint   // 64 minus the index's bit width
	walk  uint64 // bounded-hash walks so far; stamps the endpoints each passes

	// Running sums over routable endpoints — the bounded-hash bound per
	// request without a scan. Every write to an endpoint's state or load,
	// and every membership change, keeps them exact.
	routableLoad int64
	routableN    int
}

// NewRouter creates an empty router with the given policy.
func NewRouter(policy RouterPolicy) *Router {
	return &Router{policy: policy}
}

// Add registers a replica with the given weight (<=0 means 1). New
// replicas start Healthy. Ids are non-negative and index a slice, so they
// should be dense from 0, as the cluster's are.
func (r *Router) Add(id int, weight float64) error {
	if id < 0 {
		return fmt.Errorf("cluster: negative replica id %d", id)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("cluster: replica %d weight %v is not a finite number", id, weight)
	}
	if weight <= 0 {
		weight = 1
	}
	if r.get(id) != nil {
		return fmt.Errorf("cluster: replica %d already routed", id)
	}
	if id >= len(r.eps) {
		r.eps = append(r.eps, make([]*endpoint, id+1-len(r.eps))...)
	}
	r.eps[id] = &endpoint{id: id, weight: weight, state: runtime.Healthy}
	r.n++
	r.routableN++
	r.stale = true
	return nil
}

// Remove deregisters a replica. Unknown ids are a no-op.
func (r *Router) Remove(id int) {
	ep := r.get(id)
	if ep == nil {
		return
	}
	r.count(ep, -1)
	r.eps[id] = nil
	r.n--
	r.stale = true
}

// get returns the endpoint registered under id, or nil.
func (r *Router) get(id int) *endpoint {
	if id < 0 || id >= len(r.eps) {
		return nil
	}
	return r.eps[id]
}

// count adds (sign +1) or withdraws (-1) an endpoint's contribution to the
// running routable sums.
func (r *Router) count(ep *endpoint, sign int) {
	if routable(ep) {
		r.routableN += sign
		r.routableLoad += int64(sign) * ep.load
	}
}

// SetState moves a replica through the health state machine as the router
// sees it. Quarantined replicas take no traffic.
func (r *Router) SetState(id int, st runtime.HealthState) {
	if ep := r.get(id); ep != nil {
		r.count(ep, -1)
		ep.state = st
		r.count(ep, +1)
	}
}

// AddLoad adjusts a replica's outstanding-request gauge (admitted queue
// plus in-flight). The least-loaded and bounded-hash policies route on it.
func (r *Router) AddLoad(id int, delta int64) {
	if ep := r.get(id); ep != nil {
		load := max(ep.load+delta, 0)
		if routable(ep) {
			r.routableLoad += load - ep.load
		}
		ep.load = load
	}
}

// Route picks a replica for the key. ok is false when no routable (non-
// quarantined) replica exists. WRR and least-loaded ignore the key.
func (r *Router) Route(key uint64) (int, bool) {
	if r.stale {
		r.rebuild()
	}
	switch r.policy {
	case WeightedRoundRobin:
		return r.routeWRR()
	case LeastLoaded:
		return r.routeLeastLoaded()
	case BoundedHash:
		return r.routeBoundedHash(key)
	}
	return 0, false
}

// routable reports whether an endpoint may take traffic.
func routable(ep *endpoint) bool { return ep.state != runtime.Quarantined }

// routeWRR is smooth weighted round-robin over routable endpoints.
func (r *Router) routeWRR() (int, bool) {
	var best *endpoint
	var total float64
	for _, ep := range r.order {
		if !routable(ep) {
			continue
		}
		ep.current += ep.weight
		total += ep.weight
		if best == nil || ep.current > best.current {
			best = ep
		}
	}
	if best == nil {
		return 0, false
	}
	best.current -= total
	return best.id, true
}

// routeLeastLoaded picks the best (state, load, id) routable endpoint.
func (r *Router) routeLeastLoaded() (int, bool) {
	var best *endpoint
	for _, ep := range r.order {
		if !routable(ep) {
			continue
		}
		if best == nil ||
			ep.state < best.state ||
			(ep.state == best.state && ep.load < best.load) {
			best = ep
		}
	}
	if best == nil {
		return 0, false
	}
	return best.id, true
}

// routeBoundedHash walks the ring clockwise from the key's position to the
// first routable endpoint whose load stays under the bound. If every
// routable endpoint is at the bound (transiently possible while loads
// change), it falls back to the least-loaded routable one — traffic is
// never refused while any replica can take it.
func (r *Router) routeBoundedHash(key uint64) (int, bool) {
	total, routableN := r.routableLoad, r.routableN
	if routableN == 0 {
		return 0, false
	}
	bound := loadBound(total, routableN)
	i := r.search(mix64(key))
	// Each over-bound endpoint the walk passes is stamped with this walk's
	// number, so a later vnode of it is skipped without a per-call set.
	r.walk++
	passed := 0
	for k := 0; k < len(r.ring) && passed < routableN; k++ {
		j := i + k
		if j >= len(r.ring) {
			j -= len(r.ring)
		}
		ep := r.ring[j].ep
		if !routable(ep) || ep.walk == r.walk {
			continue
		}
		if ep.load+1 <= bound {
			return ep.id, true
		}
		ep.walk = r.walk
		passed++
	}
	return r.routeLeastLoaded()
}

// loadBound is the most outstanding requests a replica may hold after
// taking the one being placed: ceil(c·(total+1)/n) for the bounded-load
// factor c = 1.25 = 5/4, the classic consistent-hashing-with-bounded-loads
// operating point, over the n routable replicas' total load. In integers it
// is exact; it equals the float64 math.Ceil(1.25*float64(total+1)/float64(n))
// whenever 5·(total+1) < 2^53.
func loadBound(total int64, n int) int64 {
	d := 4 * int64(n)
	return (5*(total+1) + d - 1) / d
}

// search returns the first ring slot whose hash is >= h, or len(ring) when
// h is past the last one: sort.Search's answer without the binary search.
// The index bucket of h's top bits starts the scan at or before the
// answer, and buckets outnumber slots / 4, so the scan steps over a few
// slots on average.
func (r *Router) search(h uint64) int {
	i := int(r.index[h>>r.shift])
	for i < len(r.ring) && r.ring[i].hash < h {
		i++
	}
	return i
}

// rebuild refreshes the deterministic iteration order, the hash ring and
// its index. Add and Remove only mark membership stale; the next Route or
// IDs calls this once, so a thousand Adds cost one build and not a
// thousand. Ring positions depend only on replica ids, so a rejoining
// replica reclaims exactly its old arcs (bounded key movement).
//
// The three slices are reused when they are large enough: nothing outside
// the Router keeps them (IDs copies), so a membership change at a size the
// router has had allocates nothing.
func (r *Router) rebuild() {
	r.stale = false
	r.order = resize(r.order, r.n)[:0]
	for _, ep := range r.eps {
		if ep != nil {
			r.order = append(r.order, ep)
		}
	}
	r.ring = resize(r.ring, len(r.order)*vnodes)
	// More buckets than ring slots / 4: a 100-replica ring of 6400 slots
	// gets 2048 buckets, 8 KiB of index.
	width := bits.Len(uint(len(r.ring) / 4))
	r.shift = uint(64 - width)
	r.index = resize(r.index, 1<<width)
	clear(r.index)
	fillRing(r.ring, r.index, r.shift, r.order, vnodeHash)
}

// resize returns s at length n, reusing its array when it holds n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fillRing lays the vnodes of order (ascending id) out on ring sorted by
// (hash, id), and sets index[b] to the first slot whose hash has top bits
// >= b, where a hash's top bits are hash>>shift. It is a counting sort on
// those bits: count each bucket's slots, turn the counts into bucket ends,
// place every slot below its bucket's end, then order each bucket by hash.
// Nothing is allocated; ring and index come sized and index zeroed.
func fillRing(ring []ringSlot, index []int32, shift uint, order []*endpoint, hash func(id, vnode int) uint64) {
	for _, ep := range order {
		for v := range vnodes {
			index[hash(ep.id, v)>>shift]++
		}
	}
	for b := 1; b < len(index); b++ {
		index[b] += index[b-1]
	}
	// Walking the slots backwards and filling each bucket from its end down
	// keeps a bucket in ascending id, and leaves index[b] at its first slot.
	for i := len(order) - 1; i >= 0; i-- {
		ep := order[i]
		for v := vnodes - 1; v >= 0; v-- {
			h := hash(ep.id, v)
			b := h >> shift
			index[b]--
			ring[index[b]] = ringSlot{hash: h, ep: ep}
		}
	}
	// Every slot is in its bucket, so an insertion sort moves slots only
	// within one (about three slots), and stops at an equal hash, which
	// keeps equal hashes in ascending id.
	for i := 1; i < len(ring); i++ {
		s := ring[i]
		j := i
		for ; j > 0 && ring[j-1].hash > s.hash; j-- {
			ring[j] = ring[j-1]
		}
		ring[j] = s
	}
}

// vnodeHash positions one virtual node of a replica on the ring.
func vnodeHash(id, vnode int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
		buf[8+i] = byte(vnode >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: request keys are often sequential
// (user ids, session counters), and the mixer spreads them over the ring.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
