package main

import (
	"bytes"
	"testing"

	"edram/internal/service"
)

func draw(workload string, seed int64, client, clients, n int) []Op {
	g := newGenerator(workload, seed, client, clients)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, wl := range workloadNames {
		a := draw(wl, 7, 1, 2, 300)
		b := draw(wl, 7, 1, 2, 300)
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Allowed != b[i].Allowed {
				t.Fatalf("%s op %d differs between two generators of seed 7", wl, i)
			}
		}
	}
}

func TestShardedSendsColdBodies(t *testing.T) {
	cold, sharded := draw(wlCold, 4, 0, 2, 200), draw(wlSharded, 4, 0, 2, 200)
	for i := range cold {
		if !bytes.Equal(cold[i].Body, sharded[i].Body) {
			t.Fatalf("op %d: explore-sharded body differs from explore-cold's", i)
		}
	}
}

func TestDifferentSeedsDifferentBodies(t *testing.T) {
	for _, wl := range workloadNames {
		a := draw(wl, 7, 0, 2, 100)
		b := draw(wl, 8, 0, 2, 100)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].Body, b[i].Body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 gave identical schedules", wl)
		}
	}
}

// TestColdKeysDistinct draws both clients' sequences, far longer than a
// run uses, and requires every canonical and every structural key to
// be new — also against the deployment's fixed bodies.
func TestColdKeysDistinct(t *testing.T) {
	for _, wl := range []string{wlCold, wlSharded} {
		canon, structural := map[string]bool{}, map[string]bool{}
		for _, w := range warmSet() {
			canon[w.op.Explore.CanonicalKey()] = true
		}
		for _, req := range append(warmFamilies(), diskBodies()...) {
			structural[req.StructuralKey()] = true
		}
		for c := 0; c < 2; c++ {
			for i, op := range draw(wl, 3, c, 2, 6000) {
				ck, sk := op.Explore.CanonicalKey(), op.Explore.StructuralKey()
				if canon[ck] || structural[sk] {
					t.Fatalf("%s client %d op %d repeats a key: %s", wl, c, i, sk)
				}
				canon[ck], structural[sk] = true, true
				if op.Allowed != tiers(tierMiss) {
					t.Fatalf("%s op %d: want only miss allowed", wl, i)
				}
			}
		}
	}
}

// TestWarmFirstTouchOwnedByOneClient checks that the clients touch
// disjoint body sets, that each body's first touch carries the tier
// its kind implies, and that repeats allow only the byte tiers.
func TestWarmFirstTouchOwnedByOneClient(t *testing.T) {
	set := warmSet()
	index := map[string]int{}
	for i, w := range set {
		index[string(w.op.Body)] = i
	}
	owner := map[int]int{}
	for c := 0; c < 2; c++ {
		seen := map[int]bool{}
		for i, op := range draw(wlWarm, 11, c, 2, 20000) {
			b, ok := index[string(op.Body)]
			if !ok {
				t.Fatalf("client %d op %d is not in the warm set", c, i)
			}
			if o, ok := owner[b]; ok && o != c {
				t.Fatalf("body %d touched by clients %d and %d", b, o, c)
			}
			owner[b] = c
			want := tiers(tierHit, tierDisk)
			if !seen[b] {
				switch set[b].kind {
				case warmTweak:
					want = tiers(tierDelta)
				case warmDisk:
					want = tiers(tierDisk)
				}
			}
			seen[b] = true
			if op.Allowed != want {
				t.Fatalf("client %d op %d (body %d): allowed %b, want %b", c, i, b, op.Allowed, want)
			}
		}
	}
	if len(set) <= 256 {
		t.Errorf("warm set has %d bodies; it must exceed the 256-entry memory LRU", len(set))
	}
}

func TestBodiesValid(t *testing.T) {
	for _, w := range warmSet() {
		if v := w.op.Explore.Violations(); len(v) > 0 {
			t.Fatalf("warm body %s: %v", w.op.Body, v)
		}
	}
	for _, wl := range workloadNames {
		for c := 0; c < 2; c++ {
			for _, op := range draw(wl, 5, c, 2, 2000) {
				var v []string
				if op.Sim != nil {
					v = op.Sim.Violations(maxSimRequests)
				} else {
					v = op.Explore.Violations()
				}
				if len(v) > 0 {
					t.Fatalf("%s body %s: %v", wl, op.Body, v)
				}
			}
		}
	}
}

func TestSimulateBodiesRunAndAreSized(t *testing.T) {
	for _, op := range draw(wlSim, 9, 0, 2, 40) {
		total := 0
		for _, c := range op.Sim.Clients {
			total += c.Count
		}
		if len(op.Sim.Clients) != 2 || total < 6000 || total > 16000 {
			t.Fatalf("body %s: %d clients, %d requests; want 2 clients, 6000..16000 requests", op.Body, len(op.Sim.Clients), total)
		}
		if _, err := service.BuildSimulate(*op.Sim); err != nil {
			t.Fatalf("body %s: %v", op.Body, err)
		}
	}
}
