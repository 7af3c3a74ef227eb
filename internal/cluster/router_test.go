// Property tests for the routing policies: the consistent-hash balance
// bound and bounded key movement (the two theorems bounded-load hashing
// buys), quarantine avoidance across all policies, smooth-WRR
// proportionality, an eager oracle that cross-checks every answer on
// random traffic, and the ring's counting-pass build.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tpusim/internal/runtime"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []RouterPolicy{WeightedRoundRobin, LeastLoaded, BoundedHash} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

// TestHashBalanceBound: with bounded-load hashing, after placing 10k
// sticky keys on 10 replicas no replica holds more than 1.25x the mean.
func TestHashBalanceBound(t *testing.T) {
	const replicas, keys = 10, 10000
	r := NewRouter(BoundedHash)
	for id := 0; id < replicas; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int64, replicas)
	for k := uint64(0); k < keys; k++ {
		id, ok := r.Route(k)
		if !ok {
			t.Fatalf("key %d unroutable", k)
		}
		r.AddLoad(id, 1) // key stays resident: outstanding load
		counts[id]++
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(keys) / float64(replicas)
	// The walk admits a replica only while load+1 <= ceil(c*(total+1)/n),
	// so the final max is bounded by ceil(1.25 * keys / replicas).
	limit := math.Ceil(1.25 * keys / replicas)
	if float64(max) > limit {
		t.Fatalf("max load %d exceeds bound %.0f (mean %.0f, max/mean %.3f)",
			max, limit, mean, float64(max)/mean)
	}
	t.Logf("max/mean = %.3f over %d keys", float64(max)/mean, keys)
}

// routeAll maps each key through the router without touching loads, so
// the bounded-load walk degenerates to pure consistent hashing and the
// mapping depends only on ring membership.
func routeAll(t *testing.T, r *Router, keys int) map[uint64]int {
	t.Helper()
	m := make(map[uint64]int, keys)
	for k := uint64(0); k < uint64(keys); k++ {
		id, ok := r.Route(k)
		if !ok {
			t.Fatalf("key %d unroutable", k)
		}
		m[k] = id
	}
	return m
}

// TestBoundedKeyMovement: a replica join moves only keys that land on the
// new replica (about 1/(n+1) of them), a leave moves only the leaver's
// keys, and a rejoin restores the original mapping exactly because ring
// positions depend only on replica ids.
func TestBoundedKeyMovement(t *testing.T) {
	const replicas, keys = 10, 10000
	r := NewRouter(BoundedHash)
	for id := 0; id < replicas; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := routeAll(t, r, keys)

	// Join: every moved key must move TO the new replica.
	if err := r.Add(replicas, 1); err != nil {
		t.Fatal(err)
	}
	after := routeAll(t, r, keys)
	moved := 0
	for k, id := range after {
		if id != before[k] {
			moved++
			if id != replicas {
				t.Fatalf("key %d moved %d -> %d, not to the joining replica", k, before[k], id)
			}
		}
	}
	expected := float64(keys) / float64(replicas+1)
	if float64(moved) > 2*expected {
		t.Fatalf("join moved %d keys, want ~%.0f (vnode arcs too uneven)", moved, expected)
	}
	if moved == 0 {
		t.Fatal("join moved no keys: new replica owns no arcs")
	}

	// Leave: removing the joiner restores the original mapping exactly.
	r.Remove(replicas)
	restored := routeAll(t, r, keys)
	for k, id := range restored {
		if id != before[k] {
			t.Fatalf("key %d maps to %d after leave, was %d before join", k, id, before[k])
		}
	}

	// Leave of an original member: only its keys move.
	r.Remove(3)
	afterLeave := routeAll(t, r, keys)
	for k, id := range afterLeave {
		if before[k] != 3 && id != before[k] {
			t.Fatalf("key %d moved %d -> %d though replica 3 never owned it", k, before[k], id)
		}
		if id == 3 {
			t.Fatalf("key %d still routed to removed replica 3", k)
		}
	}
}

// TestNoPolicyRoutesToQuarantined: all three policies refuse quarantined
// replicas even when one is the least-loaded or the key's ring owner.
func TestNoPolicyRoutesToQuarantined(t *testing.T) {
	for _, policy := range []RouterPolicy{WeightedRoundRobin, LeastLoaded, BoundedHash} {
		t.Run(policy.String(), func(t *testing.T) {
			r := NewRouter(policy)
			for id := 0; id < 5; id++ {
				if err := r.Add(id, 1); err != nil {
					t.Fatal(err)
				}
				r.AddLoad(id, 10) // bait: quarantined replica will look emptiest
			}
			r.SetState(2, runtime.Quarantined)
			r.AddLoad(2, -10)
			for k := uint64(0); k < 2000; k++ {
				id, ok := r.Route(k)
				if !ok {
					t.Fatalf("key %d unroutable with 4 healthy replicas", k)
				}
				if id == 2 {
					t.Fatalf("%s routed key %d to quarantined replica", policy, k)
				}
			}
			// All quarantined: routing must refuse, not pick one anyway.
			for id := 0; id < 5; id++ {
				r.SetState(id, runtime.Quarantined)
			}
			if id, ok := r.Route(1); ok {
				t.Fatalf("routed to %d with every replica quarantined", id)
			}
		})
	}
}

// TestLeastLoadedPrefersHealthyOverDegraded: state outranks load.
func TestLeastLoadedPrefersHealthyOverDegraded(t *testing.T) {
	r := NewRouter(LeastLoaded)
	for id := 0; id < 3; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	r.SetState(0, runtime.Degraded)
	r.AddLoad(1, 5)
	r.AddLoad(2, 3)
	// Replica 0 has zero load but is Degraded; 2 is the least-loaded Healthy.
	if id, _ := r.Route(0); id != 2 {
		t.Fatalf("least-loaded picked %d, want healthy replica 2", id)
	}
}

// TestWRRProportional: smooth WRR is exactly proportional over a full
// weight cycle and never bursts one replica.
func TestWRRProportional(t *testing.T) {
	r := NewRouter(WeightedRoundRobin)
	weights := map[int]float64{0: 4, 1: 2, 2: 1}
	for id, w := range weights {
		if err := r.Add(id, w); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[int]int{}
	const cycles = 100
	for i := 0; i < 7*cycles; i++ { // weight sum is 7
		id, ok := r.Route(0)
		if !ok {
			t.Fatal("unroutable")
		}
		counts[id]++
	}
	for id, w := range weights {
		if want := int(w) * cycles; counts[id] != want {
			t.Fatalf("replica %d took %d picks, want %d", id, counts[id], want)
		}
	}
}

// TestBoundedHashSticky: under even load the same key keeps hitting the
// same replica — the affinity property the policy exists for.
func TestBoundedHashSticky(t *testing.T) {
	r := NewRouter(BoundedHash)
	for id := 0; id < 8; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		first, ok := r.Route(k)
		if !ok {
			t.Fatal("unroutable")
		}
		for rep := 0; rep < 10; rep++ {
			if id, _ := r.Route(k); id != first {
				t.Fatalf("key %d flapped %d -> %d with no load change", k, first, id)
			}
		}
	}
}

// eagerRouter is the router as it was before the ring went lazy, kept as
// the reference: it rebuilds order and ring on every membership change and
// rescans every endpoint for the bounded-hash bound on every request.
type eagerRouter struct {
	policy RouterPolicy
	eps    map[int]*endpoint
	order  []*endpoint
	ring   []ringSlot
}

func (r *eagerRouter) rebuild() {
	r.order = r.order[:0]
	for _, ep := range r.eps {
		r.order = append(r.order, ep)
	}
	sort.Slice(r.order, func(i, j int) bool { return r.order[i].id < r.order[j].id })
	r.ring = r.ring[:0]
	for _, ep := range r.order {
		for v := 0; v < vnodes; v++ {
			r.ring = append(r.ring, ringSlot{hash: vnodeHash(ep.id, v), ep: ep})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].ep.id < r.ring[j].ep.id
	})
}

func (r *eagerRouter) add(id int, weight float64) bool {
	if _, ok := r.eps[id]; ok {
		return false
	}
	r.eps[id] = &endpoint{id: id, weight: weight, state: runtime.Healthy}
	r.rebuild()
	return true
}

func (r *eagerRouter) remove(id int) {
	if _, ok := r.eps[id]; ok {
		delete(r.eps, id)
		r.rebuild()
	}
}

func (r *eagerRouter) addLoad(id int, delta int64) {
	if ep, ok := r.eps[id]; ok {
		ep.load += delta
		if ep.load < 0 {
			ep.load = 0
		}
	}
}

// routableSums is the fresh scan the new router's running totals replace.
func (r *eagerRouter) routableSums() (total int64, n int) {
	for _, ep := range r.order {
		if routable(ep) {
			total += ep.load
			n++
		}
	}
	return total, n
}

func (r *eagerRouter) leastLoaded() (int, bool) {
	var best *endpoint
	for _, ep := range r.order {
		if routable(ep) && (best == nil || ep.state < best.state ||
			(ep.state == best.state && ep.load < best.load)) {
			best = ep
		}
	}
	if best == nil {
		return 0, false
	}
	return best.id, true
}

func (r *eagerRouter) route(key uint64) (int, bool) {
	switch r.policy {
	case WeightedRoundRobin:
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
	case LeastLoaded:
		return r.leastLoaded()
	}
	total, n := r.routableSums()
	if n == 0 {
		return 0, false
	}
	bound := int64(math.Ceil(1.25 * float64(total+1) / float64(n)))
	h := mix64(key)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	seen := map[int]bool{}
	for k := 0; k < len(r.ring) && len(seen) < n; k++ {
		ep := r.ring[(i+k)%len(r.ring)].ep
		if !routable(ep) || seen[ep.id] {
			continue
		}
		if ep.load+1 <= bound {
			return ep.id, true
		}
		seen[ep.id] = true
	}
	return r.leastLoaded()
}

// TestRouterMatchesEagerOracle: over seeded random interleavings of every
// mutating and reading call, the lazy router answers every Route and IDs
// exactly as the eager one does, and after every step its running routable
// load and count equal a fresh sum — including AddLoad deltas that clamp
// at zero and state flips in and out of Quarantined.
func TestRouterMatchesEagerOracle(t *testing.T) {
	states := []runtime.HealthState{runtime.Healthy, runtime.Degraded, runtime.Quarantined}
	for _, policy := range []RouterPolicy{WeightedRoundRobin, LeastLoaded, BoundedHash} {
		t.Run(policy.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := NewRouter(policy)
				o := &eagerRouter{policy: policy, eps: map[int]*endpoint{}}
				for step := 0; step < 400; step++ {
					id := rng.Intn(70) // enough replicas to resize the ring's index
					switch op := rng.Intn(10); {
					case op < 2:
						w := float64(1 + rng.Intn(3))
						if got, want := r.Add(id, w) == nil, o.add(id, w); got != want {
							t.Fatalf("%v seed %d step %d: Add(%d) ok=%v, oracle %v", policy, seed, step, id, got, want)
						}
					case op < 3:
						r.Remove(id)
						o.remove(id)
					case op < 5:
						st := states[rng.Intn(len(states))]
						r.SetState(id, st)
						if ep, ok := o.eps[id]; ok {
							ep.state = st
						}
					case op < 7:
						delta := int64(rng.Intn(9) - 5) // negative often enough to hit the clamp
						r.AddLoad(id, delta)
						o.addLoad(id, delta)
					case op < 9:
						key := rng.Uint64()
						gotID, gotOK := r.Route(key)
						wantID, wantOK := o.route(key)
						if gotID != wantID || gotOK != wantOK {
							t.Fatalf("%v seed %d step %d: Route(%d) = %d,%v, oracle %d,%v",
								policy, seed, step, key, gotID, gotOK, wantID, wantOK)
						}
						if gotOK && rng.Intn(2) == 0 {
							r.AddLoad(gotID, 1)
							o.addLoad(gotID, 1)
						}
					default:
						want := make([]int, len(o.order))
						for i, ep := range o.order {
							want[i] = ep.id
						}
						if got := r.IDs(); !slices.Equal(got, want) {
							t.Fatalf("%v seed %d step %d: IDs = %v, oracle %v", policy, seed, step, got, want)
						}
					}
					if total, n := o.routableSums(); r.routableLoad != total || r.routableN != n {
						t.Fatalf("%v seed %d step %d: running load/count %d/%d, fresh sum %d/%d",
							policy, seed, step, r.routableLoad, r.routableN, total, n)
					}
				}
			}
		})
	}
}

// TestRingIndexMatchesSearch: the counting-pass ring equals every
// replica's vnodes sorted by (hash, id) with slices.SortFunc, and the bucket
// index finds the slot sort.Search finds — including past the last slot,
// where both return len(ring) — on rings whose index width runs from 5 to
// 13 bits, at every slot's own hash, one either side of it, both ends of
// the key space and random keys. Then it checks the same on memberships
// with holes that Remove left.
func TestRingIndexMatchesSearch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	r := NewRouter(BoundedHash)
	check := func(what string) {
		t.Helper()
		r.rebuild()
		var want []ringSlot
		for _, ep := range r.eps {
			for v := 0; ep != nil && v < vnodes; v++ {
				want = append(want, ringSlot{hash: vnodeHash(ep.id, v), ep: ep})
			}
		}
		slices.SortFunc(want, func(a, b ringSlot) int {
			if c := cmp.Compare(a.hash, b.hash); c != 0 {
				return c
			}
			return cmp.Compare(a.ep.id, b.ep.id)
		})
		if !slices.Equal(r.ring, want) {
			t.Fatalf("%s: ring is not sorted by (hash, id)", what)
		}
		search := func(h uint64) {
			want := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
			if got := r.search(h); got != want {
				t.Fatalf("%s: search(%#x) = %d, sort.Search %d", what, h, got, want)
			}
		}
		search(0)
		search(math.MaxUint64)
		for _, slot := range r.ring {
			search(slot.hash - 1)
			search(slot.hash)
			search(slot.hash + 1)
		}
		for k := 0; k < 10_000; k++ {
			search(rng.Uint64())
		}
	}
	for n := 1; n <= 300; n++ {
		if err := r.Add(n-1, 1); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d replicas", n))
	}
	for _, id := range rng.Perm(300)[:290] {
		r.Remove(id)
		if r.n%10 == 0 {
			check(fmt.Sprintf("%d replicas after removes", r.n))
		}
	}
}

// TestFillRingKeepsIDOrderOnCollisions: when two replicas' vnodes hash
// alike, the counting pass orders the colliding slots by ascending id,
// whichever order the bucket's insertion sort meets them in.
func TestFillRingKeepsIDOrderOnCollisions(t *testing.T) {
	order := []*endpoint{{id: 3}, {id: 8}}
	// Both replicas put every vnode on one of four hashes, in opposite
	// vnode orders, so each hash holds one slot of each replica.
	hashes := []uint64{7 << 60, 1 << 60, 1<<60 + 1, 15 << 60}
	hash := func(id, vnode int) uint64 {
		if id == 8 {
			vnode = vnodes - 1 - vnode
		}
		return hashes[vnode%len(hashes)]
	}
	ring := make([]ringSlot, len(order)*vnodes)
	const width = 5
	index := make([]int32, 1<<width)
	fillRing(ring, index, 64-width, order, hash)
	for i := 1; i < len(ring); i++ {
		a, b := ring[i-1], ring[i]
		if a.hash > b.hash || (a.hash == b.hash && a.ep.id > b.ep.id) {
			t.Fatalf("slots %d, %d = (%#x, %d), (%#x, %d): not in (hash, id) order",
				i-1, i, a.hash, a.ep.id, b.hash, b.ep.id)
		}
	}
	for b := range index {
		want := sort.Search(len(ring), func(i int) bool { return ring[i].hash>>(64-width) >= uint64(b) })
		if int(index[b]) != want {
			t.Fatalf("index[%d] = %d, want %d", b, index[b], want)
		}
	}
}

// TestLoadBoundMatchesFloat: the integer bound is the float64
// math.Ceil(1.25*float64(total+1)/float64(n)) it replaced, on every total
// up to 64 requests a replica for 1 to 4096 replicas, and around 1<<40.
func TestLoadBoundMatchesFloat(t *testing.T) {
	t.Parallel()
	float := func(total int64, n int) int64 {
		return int64(math.Ceil(1.25 * float64(total+1) / float64(n)))
	}
	for n := 1; n <= 4096; n++ {
		for total := int64(0); total <= 64*int64(n); total++ {
			if got, want := loadBound(total, n), float(total, n); got != want {
				t.Fatalf("loadBound(%d, %d) = %d, float %d", total, n, got, want)
			}
		}
		for total := int64(1<<40) - 4*int64(n); total <= 1<<40+4*int64(n); total++ {
			if got, want := loadBound(total, n), float(total, n); got != want {
				t.Fatalf("loadBound(%d, %d) = %d, float %d", total, n, got, want)
			}
		}
	}
}

// TestRebuildAllocs: a 100-replica router's first build allocates only the
// three slices it keeps — order, ring and index — and no sort scratch, and
// a rebuild after a membership change that leaves it no larger allocates
// nothing.
func TestRebuildAllocs(t *testing.T) {
	r := NewRouter(BoundedHash)
	for id := 0; id < 100; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1, func() { *r = Router{policy: r.policy, eps: r.eps, n: r.n}; r.rebuild() }); n > 3 {
		t.Errorf("100-replica first build: %v allocs, want <= 3 (order, ring, index)", n)
	}
	churn := func() {
		r.Remove(42)
		r.rebuild()
		if err := r.Add(42, 1); err != nil {
			t.Fatal(err)
		}
		r.rebuild()
	}
	if n := testing.AllocsPerRun(20, churn); n > 1 {
		t.Errorf("100-replica remove, rebuild, add, rebuild: %v allocs, want <= 1 (the added endpoint)", n)
	}
}

// TestRouteZeroAlloc: a bounded-hash Route allocates nothing, even when
// its walk passes more over-bound replicas than a stack-allocated set of
// them could hold, and neither does AddLoad.
func TestRouteZeroAlloc(t *testing.T) {
	const replicas, loaded = 40, 30
	r := NewRouter(BoundedHash)
	for id := 0; id < replicas; id++ {
		if err := r.Add(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	r.rebuild()
	// The first 30 replicas clockwise from slot 0 hold 100 requests each,
	// over the bound of ceil(1.25 x 3001/40) = 94, so a key landing on slot
	// 0 walks past all of them to an empty one.
	held := make([]bool, replicas)
	for i, n := 0, 0; n < loaded; i++ {
		if id := r.ring[i].ep.id; !held[id] {
			held[id] = true
			r.AddLoad(id, 100)
			n++
		}
	}
	key := uint64(0)
	for r.search(mix64(key)) != 0 {
		key++
	}
	id, ok := r.Route(key)
	if !ok || held[id] {
		t.Fatalf("Route(%d) = %d,%v, want an empty replica", key, id, ok)
	}
	passed := 0
	for _, ep := range r.eps {
		if ep.walk == r.walk {
			passed++
		}
	}
	if passed < 9 {
		t.Fatalf("the walk passed %d over-bound replicas, want >= 9", passed)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Route(key) }); n != 0 {
		t.Errorf("bounded-hash Route passing %d replicas: %v allocs per call, want 0", passed, n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.AddLoad(id, 1)
		r.AddLoad(id, -1)
	}); n != 0 {
		t.Errorf("AddLoad: %v allocs per call pair, want 0", n)
	}
}

// IDs returns the registered replica ids in ascending order.
func (r *Router) IDs() []int {
	if r.stale {
		r.rebuild()
	}
	out := make([]int, len(r.order))
	for i, ep := range r.order {
		out[i] = ep.id
	}
	return out
}
