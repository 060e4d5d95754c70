package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"edram/internal/core"
	"edram/internal/edram"
	"edram/internal/service"
	"edram/internal/tech"
)

// Workload names. Later changes cite them, so they are fixed.
const (
	wlCold    = "explore-cold"
	wlWarm    = "explore-warm"
	wlSharded = "explore-sharded"
	wlSim     = "simulate"
)

var workloadNames = []string{wlCold, wlWarm, wlSharded, wlSim}

// X-Cache header values the daemon serves.
const (
	tierHit       = "hit"
	tierDisk      = "hit-disk"
	tierDelta     = "hit-delta"
	tierMiss      = "miss"
	tierCoalesced = "coalesced"
)

var tierNames = []string{tierHit, tierDisk, tierDelta, tierMiss, tierCoalesced}

// tierSet is a set of X-Cache values, one bit per tierNames entry.
type tierSet uint8

func tiers(names ...string) tierSet {
	var s tierSet
	for _, n := range names {
		for i, t := range tierNames {
			if t == n {
				s |= 1 << i
			}
		}
	}
	return s
}

func (s tierSet) has(name string) bool { return s&tiers(name) != 0 }

// tierIndex returns name's index in tierNames, or -1.
func tierIndex(name string) int8 {
	for i, t := range tierNames {
		if t == name {
			return int8(i)
		}
	}
	return -1
}

// request is one request body and the typed request it encodes.
// Requests are immutable once built and shared by every op that sends
// them.
type request struct {
	Path string
	Body []byte
	// Explore or Sim is the typed request the body encodes.
	Explore *core.Requirements
	Sim     *service.SimulateRequest
}

// Op is one scheduled send of a request, together with every X-Cache
// value the schedule allows for it.
type Op struct {
	*request
	Allowed tierSet
}

// The deployment's fixed explore bodies: the Warmup families, their
// constraint tweaks, and the bodies an earlier server life left on
// disk. Their hit rates are whole multiples of 0.001; generated
// bodies never use such a hit rate, so no generated body can share a
// structural key with a fixed one.
const (
	numFamilies       = 8
	tweaksPerFamily   = 40
	numDiskBodies     = 192
	fixedHitRateGrain = 1000 // hit rate = k / 1e6 with k % grain == 0
)

// maxSimRequests is the daemon's default per-request simulation cap
// (service.Config.MaxSimRequests).
const maxSimRequests = 2_000_000

var familyCapacities = [numFamilies]int{8, 16, 24, 32, 48, 64, 96, 128}

// warmFamilies returns the 8 structural families the daemon warms up.
// Two of them span all three base processes.
func warmFamilies() []core.Requirements {
	out := make([]core.Requirements, numFamilies)
	for f := range out {
		out[f] = core.Requirements{
			CapacityMbit:  familyCapacities[f],
			BandwidthGBps: 1,
			HitRate:       float64(500_000+50_000*f) / 1e6,
		}
		if f%4 == 3 {
			out[f].Processes = tech.Processes()
		}
	}
	return out
}

// familyTweak is constraint tweak j of family f: the structure stays,
// the bandwidth target moves (never back to the family's own 1 GB/s)
// and every third tweak adds an area or a power cap.
func familyTweak(f, j int) core.Requirements {
	req := warmFamilies()[f]
	req.BandwidthGBps = round3(0.525 + 0.05*float64(j))
	switch j % 3 {
	case 1:
		req.MaxAreaMm2 = round3(float64(req.CapacityMbit) * (1 + 0.05*float64(j)))
	case 2:
		req.MaxPowerMW = float64(400 + 25*j)
	}
	return req
}

// diskBody is the i-th body the earlier server life computed and left
// in the disk tier.
func diskBody(i int) core.Requirements {
	req := core.Requirements{
		CapacityMbit:  4 + (i*37)%125,
		BandwidthGBps: round3(0.8 + 0.01*float64(i%50)),
		HitRate:       float64(100_000+fixedHitRateGrain*i) / 1e6,
	}
	if i%4 == 0 {
		req.Processes = tech.Processes()
	}
	if i%2 == 1 {
		req.MaxAreaMm2 = round3(float64(req.CapacityMbit) * 1.5)
		req.MaxPowerMW = 1200
	}
	return req
}

func diskBodies() []core.Requirements {
	out := make([]core.Requirements, numDiskBodies)
	for i := range out {
		out[i] = diskBody(i)
	}
	return out
}

// warmKind classifies an explore-warm body by how its first touch is
// served.
type warmKind uint8

const (
	warmFamily warmKind = iota // warmed into memory and disk
	warmTweak                  // served incrementally from a family's delta state
	warmDisk                   // left in the disk tier by the earlier life
)

type warmBody struct {
	kind warmKind
	op   Op
}

// warmSet is the fixed explore-warm body set: 8 families, 320 tweaks
// and 192 disk bodies, 520 in all — more than the 256-entry memory LRU
// holds, far less than the 4096-entry disk budget.
func warmSet() []warmBody {
	var out []warmBody
	for _, req := range warmFamilies() {
		out = append(out, warmBody{kind: warmFamily, op: exploreOp(req, tiers(tierHit, tierDisk))})
	}
	for f := 0; f < numFamilies; f++ {
		for j := 0; j < tweaksPerFamily; j++ {
			out = append(out, warmBody{kind: warmTweak, op: exploreOp(familyTweak(f, j), tiers(tierDelta))})
		}
	}
	for _, req := range diskBodies() {
		out = append(out, warmBody{kind: warmDisk, op: exploreOp(req, tiers(tierDisk))})
	}
	return out
}

func exploreOp(req core.Requirements, allowed tierSet) Op {
	r := req
	body, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("encoding explore body: %v", err)) // plain struct: cannot fail
	}
	return Op{&request{Path: "/v1/explore", Body: body, Explore: &r}, allowed}
}

func simulateOp(req service.SimulateRequest) Op {
	r := req
	body, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("encoding simulate body: %v", err)) // plain struct: cannot fail
	}
	return Op{&request{Path: "/v1/simulate", Body: body, Sim: &r}, tiers(tierMiss)}
}

// generator produces one client's op sequence. The sequence depends
// only on the workload, the seed, the client index and the client
// count, so a seed fixes every body the benchmark sends.
type generator struct {
	workload        string
	client, clients int
	rng             *rand.Rand

	// used holds the unique draws (hit rates or client seeds) already
	// handed out by this client; other clients draw from a disjoint
	// residue class, so uniqueness holds across clients too.
	used map[int]bool
	// n counts the ops drawn so far.
	n int

	// explore-warm: the bodies this client owns, in popularity order,
	// and the ones it has already touched.
	set     []warmBody
	owned   []int
	zipf    *rand.Zipf
	touched map[int]bool
}

func newGenerator(workload string, seed int64, client, clients int) *generator {
	// explore-sharded sends exactly the explore-cold bodies of a seed,
	// so the two workloads compare the sharded and the single sweep on
	// the same inputs.
	stream := workload
	if workload == wlSharded {
		stream = wlCold
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", stream, seed, client, clients)
	g := &generator{
		workload: workload,
		client:   client,
		clients:  clients,
		rng:      rand.New(rand.NewSource(int64(h.Sum64()))),
		used:     map[int]bool{},
	}
	if workload == wlWarm {
		g.set = warmSet()
		// The popularity order is a seeded permutation shared by all
		// clients; each body is owned by exactly one client, so every
		// first touch (and every repeat) comes from that client alone
		// and no two clients ever race on one key.
		ph := fnv.New64a()
		fmt.Fprintf(ph, "%s|%d|perm", workload, seed)
		perm := rand.New(rand.NewSource(int64(ph.Sum64()))).Perm(len(g.set))
		for pos, b := range perm {
			if pos%clients == client {
				g.owned = append(g.owned, b)
			}
		}
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.owned)-1))
		g.touched = map[int]bool{}
	}
	return g
}

// uniqueDraw returns a value in [lo, hi) that this client has not
// drawn before, in the client's residue class modulo the client count,
// and never a multiple of fixedHitRateGrain.
func (g *generator) uniqueDraw(lo, hi int) int {
	for {
		k := lo + g.rng.Intn(hi-lo)
		k += g.client - k%g.clients
		if k < lo || k >= hi || k%fixedHitRateGrain == 0 || g.used[k] {
			continue
		}
		g.used[k] = true
		return k
	}
}

// next returns the client's next op.
func (g *generator) next() Op {
	switch g.workload {
	case wlWarm:
		b := g.owned[g.zipf.Uint64()]
		op := g.set[b].op
		if g.touched[b] {
			// A repeat: the first touch filled memory and disk.
			op.Allowed = tiers(tierHit, tierDisk)
		}
		g.touched[b] = true
		return op
	case wlSim:
		return simulateOp(g.simulateRequest())
	default: // explore-cold, explore-sharded
		return exploreOp(g.coldRequirements(), tiers(tierMiss))
	}
}

// coldRequirements draws a body with a structural key no other body
// of the run has: a unique hit rate, a capacity in 4..128 Mbit, all
// three processes on a quarter of bodies (6912 points instead of
// 2304), and area/power caps on half of them so the prune planner
// skips subspaces.
func (g *generator) coldRequirements() core.Requirements {
	req := core.Requirements{
		CapacityMbit:  4 + g.rng.Intn(125),
		BandwidthGBps: round3(0.5 + 2.5*g.rng.Float64()),
		HitRate:       float64(g.uniqueDraw(100_000, 900_000)) / 1e6,
	}
	// The mix is stratified by position, not drawn, so every run sends
	// the same share of each body class: one body in four spans all
	// three processes and every other body carries caps.
	g.n++
	if g.n%4 == 0 {
		req.Processes = tech.Processes()
	}
	if g.n%2 == 1 {
		req.MaxAreaMm2 = round3(float64(req.CapacityMbit) * (0.8 + 1.2*g.rng.Float64()))
		req.MaxPowerMW = math.Round(300 + 1200*g.rng.Float64())
	}
	return req
}

var (
	simPolicies   = []string{"round-robin", "fixed-priority", "oldest-first", "open-page-first", "deadline"}
	simKinds      = []string{"sequential", "strided", "random", "alternating"}
	simCapacities = []int{8, 16, 32, 64}
	simInterfaces = []int{32, 64, 128}
	simBanks      = []int{0, 2, 4, 8}
	simWindows    = []int{0, 0, 4, 8}
)

// simulateRequest draws a two-client simulation of 2×3000 to 2×8000
// requests. The first client's seed is unique in the run, so every
// body misses the cache. The request count and the policy are
// stratified by position, so every run sends the same mix of sizes and
// policies: the count cycles through five 1000-request bands and the
// policy through all five policies every 25 ops.
func (g *generator) simulateRequest() service.SimulateRequest {
	pick := func(xs []int) int { return xs[g.rng.Intn(len(xs))] }
	g.n++
	band := g.n % 5
	req := service.SimulateRequest{
		Spec: edram.Spec{
			CapacityMbit:  pick(simCapacities),
			InterfaceBits: pick(simInterfaces),
			Banks:         pick(simBanks),
		},
		Options: service.SimulateOptions{
			Policy:        simPolicies[(g.n/5)%len(simPolicies)],
			ClosedPage:    g.rng.Intn(2) == 0,
			ReorderWindow: pick(simWindows),
		},
	}
	for i := 0; i < 2; i++ {
		c := service.ClientSpec{
			Name:     fmt.Sprintf("c%d", i),
			Kind:     simKinds[g.rng.Intn(len(simKinds))],
			RateGBps: round3(0.5 + 1.5*g.rng.Float64()),
			Count:    3000 + 1000*band + g.rng.Intn(1001),
			// The second client writes half the time: a read/write mix.
			Write: i == 1 && g.rng.Intn(2) == 0,
		}
		switch c.Kind {
		case "strided":
			c.StrideB = int64(64 << g.rng.Intn(7))
			c.LimitB = 1 << 22
		case "random":
			c.WindowB = int64(1 << (16 + g.rng.Intn(6)))
		case "alternating":
			c.StrideB = int64(1 << (14 + g.rng.Intn(6)))
		default:
			c.LimitB = 1 << 22
		}
		if i == 0 {
			c.Seed = int64(g.uniqueDraw(1, 1<<30))
		} else {
			c.Seed = int64(1 + g.rng.Intn(1<<20))
		}
		if req.Options.Policy == "deadline" {
			c.LatencyBudgetNs = float64(200 + 100*g.rng.Intn(20))
		}
		req.Clients = append(req.Clients, c)
	}
	return req
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
