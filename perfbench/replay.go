package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"edram/internal/core"
	"edram/internal/diskcache"
	"edram/internal/edram"
	"edram/internal/mapping"
	"edram/internal/scenario"
	"edram/internal/sched"
	"edram/internal/service"
	"edram/internal/shard"
)

const (
	// prefixOps is how many leading ops of each client's schedule the
	// exact counts (core.points, sim.*, ...) are taken over, so that
	// they repeat exactly for a seed however many ops a window sends.
	prefixOps = 32
	// maxReplayOps caps the replayed ops per client; the replay also
	// stops after as long as the timed window lasted, once the prefix
	// is done.
	maxReplayOps = 2500
	// maxDeltaStates mirrors the daemon's bound on retained delta
	// states (internal/service/deltaserve.go).
	maxDeltaStates = 8
	// shardParts is the explore-sharded deployment's ShardParts.
	shardParts = 2
)

// deltaStore mirrors the daemon's retained-state index: an LRU of
// sealed delta states by structural key, each serialized by its own
// mutex.
type deltaStore struct {
	mu      sync.Mutex
	entries map[string]*deltaEntry
	order   []string // least recently used first
}

type deltaEntry struct {
	mu    sync.Mutex
	state *core.DeltaState
}

func (d *deltaStore) touch(key string) {
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.order = append(d.order, key)
}

func (d *deltaStore) lookup(req core.Requirements) *deltaEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entries[req.StructuralKey()]
	if e == nil || !e.state.Eligible(req) {
		return nil
	}
	d.touch(req.StructuralKey())
	return e
}

func (d *deltaStore) store(st *core.DeltaState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[st.StructuralKey()] = &deltaEntry{state: st}
	d.touch(st.StructuralKey())
	for len(d.entries) > maxDeltaStates {
		delete(d.entries, d.order[0])
		d.order = d.order[1:]
	}
}

// replay holds the layer objects the traced replay drives directly —
// its own memory LRU, disk tier, worker pool and delta index, set up
// the way the daemon sets up its own — plus a separate server for the
// in-process serve probe.
type replay struct {
	t       *tracer
	sharded bool
	cache   *service.ResultCache
	disk    *diskcache.Cache
	pool    *service.WorkerPool
	workers int
	deltas  *deltaStore
	srv     *service.Server
	openMs  float64
}

// replayTally accumulates one replaying client's counts.
type replayTally struct {
	ops, failed int
	// Exact counts over the schedule prefix.
	points, skipped, built, infeasible, frontier int64
	simOps                                       int
	simSustained, simHitRate, simDurationNs      float64
	// Counts over every replayed op.
	deltaReused, deltaSwept int64
	sweptPoints, simReqs    int64
}

func (a *replayTally) add(b replayTally) {
	a.ops += b.ops
	a.failed += b.failed
	a.points += b.points
	a.skipped += b.skipped
	a.built += b.built
	a.infeasible += b.infeasible
	a.frontier += b.frontier
	a.simOps += b.simOps
	a.simSustained += b.simSustained
	a.simHitRate += b.simHitRate
	a.simDurationNs += b.simDurationNs
	a.deltaReused += b.deltaReused
	a.deltaSwept += b.deltaSwept
	a.sweptPoints += b.sweptPoints
	a.simReqs += b.simReqs
}

// newReplay sets up the replay's layers from fresh copies of the
// earlier life's disk tier.
func newReplay(dep *deployment, workers int) (_ *replay, err error) {
	ctx := context.Background()
	r := &replay{
		t:       newTracer(),
		sharded: dep.sharded,
		cache:   service.NewResultCache(256, 15*time.Minute),
		pool:    service.NewWorkerPool(workers),
		workers: workers,
		deltas:  &deltaStore{entries: map[string]*deltaEntry{}},
	}
	// diskcache.Open is timed on five fresh copies; the last stays open
	// as the replay's disk tier.
	var opens []float64
	for i := 0; i < 5; i++ {
		if r.disk != nil {
			if err := r.disk.Close(); err != nil {
				return nil, err
			}
		}
		dir, err := dep.freshCacheDir()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r.disk, err = diskcache.Open(dir, diskcache.Options{Generation: service.CacheGeneration()})
		if err != nil {
			return nil, fmt.Errorf("opening the replay disk tier: %w", err)
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sort.Float64s(opens)
	r.openMs = opens[len(opens)/2]
	defer func() {
		if err != nil {
			r.disk.Close()
		}
	}()

	// Warm the families the way Server.Warmup does: a recorded sweep,
	// then both byte tiers.
	for _, req := range warmFamilies() {
		st, err := core.NewDeltaState(req)
		if err != nil {
			return nil, err
		}
		resp, err := service.BuildExplore(ctx, req, workers, nil, core.WithObserver(st.Observe))
		if err != nil {
			return nil, err
		}
		st.Seal()
		r.deltas.store(st)
		b, err := service.Encode(resp)
		if err != nil {
			return nil, err
		}
		key := service.HashKey("explore", req.CanonicalKey())
		r.cache.Put(key, b)
		r.disk.Put(key, b)
	}
	srv, _, err := dep.startLife()
	if err != nil {
		return nil, err
	}
	r.srv = srv
	return r, nil
}

func (r *replay) close() error {
	err := r.disk.Close()
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// run replays each client's window ops on its own goroutine, in the
// order the client sent them, and returns the merged tally and the
// number of ops each client replayed.
func (r *replay) run(ops [][]Op, budget time.Duration, log io.Writer) (replayTally, []int) {
	tallies := make([]replayTally, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := &tallies[c]
			for i, op := range ops[c] {
				if i >= maxReplayOps || (i >= prefixOps && time.Since(start) > budget) {
					break
				}
				rid := int64(c)<<32 | int64(i)
				if err := r.op(rid, op, i < prefixOps, tl); err != nil {
					tl.failed++
					if tl.failed <= 3 {
						fmt.Fprintf(log, "perfbench: replay client %d op %d: %v; body %s\n", c, i, err, op.Body)
					}
				}
				tl.ops++
			}
		}(c)
	}
	wg.Wait()
	var total replayTally
	counts := make([]int, len(ops))
	for c, tl := range tallies {
		total.add(tl)
		counts[c] = tl.ops
	}
	return total, counts
}

// op replays one op: the request path under an "op" root span, then
// the probes under a "probe" root. The replayed path must serve the op
// from a tier the schedule allows, and so must the probe server.
func (r *replay) op(rid int64, op Op, prefix bool, tl *replayTally) error {
	root := r.t.begin(rid, 0, spanOp)
	var tier string
	var err error
	if op.Sim != nil {
		tier, err = r.simulate(rid, root, op, prefix, tl)
	} else {
		tier, err = r.explore(rid, root, op, prefix, tl)
	}
	r.t.end(root)
	if err != nil {
		return err
	}
	if !op.Allowed.has(tier) {
		return fmt.Errorf("replay served it as %q", tier)
	}

	probe := r.t.begin(rid, 0, spanProbe)
	defer r.t.end(probe)
	sp := r.t.begin(rid, probe, spanServe)
	status, stier, _ := serveInProcess(r.srv, op)
	r.t.end(sp)
	if status != http.StatusOK || !op.Allowed.has(stier) {
		return fmt.Errorf("serve probe answered %d %q", status, stier)
	}
	if prefix && tier == tierMiss && op.Explore != nil {
		return r.frontierProbe(rid, probe, *op.Explore)
	}
	return nil
}

// frontierProbe times core.Frontier.Add over the op's feasible
// candidates. The sweep adds them itself, inside core.sweep; the probe
// collects them with an untimed second sweep and replays the adds
// alone, on the probe root, so the budget does not count them twice.
func (r *replay) frontierProbe(rid, probe int64, req core.Requirements) error {
	ch, err := core.ExploreContext(context.Background(), req, core.WithWorkers(1), core.WithPruning())
	if err != nil {
		return err
	}
	var feasible []core.Candidate
	for c := range ch {
		if c.Feasible {
			feasible = append(feasible, c)
		}
	}
	sp := r.t.begin(rid, probe, spanFront)
	front := core.NewFrontier()
	for _, c := range feasible {
		front.Add(c)
	}
	r.t.end(sp)
	return nil
}

// strictDecode decodes like the daemon: unknown fields and trailing
// data are errors.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// lookup is the daemon's tiered read: memory, then disk, promoting a
// disk hit into memory.
func (r *replay) lookup(rid, root int64, key string) (string, bool) {
	sp := r.t.begin(rid, root, "service.cache_get")
	_, ok := r.cache.Get(key)
	r.t.end(sp)
	if ok {
		return tierHit, true
	}
	sp = r.t.begin(rid, root, "diskcache.get")
	val, ok := r.disk.Get(key)
	r.t.end(sp)
	if !ok {
		return "", false
	}
	sp = r.t.begin(rid, root, "service.cache_put")
	r.cache.Put(key, val)
	r.t.end(sp)
	return tierDisk, true
}

// fill encodes a computed response and writes it to both byte tiers.
func (r *replay) fill(rid, root int64, key string, resp any) error {
	sp := r.t.begin(rid, root, "service.encode")
	b, err := service.Encode(resp)
	r.t.end(sp)
	if err != nil {
		return err
	}
	sp = r.t.begin(rid, root, "service.cache_put")
	r.cache.Put(key, b)
	r.t.end(sp)
	sp = r.t.begin(rid, root, "diskcache.put")
	r.disk.Put(key, b)
	r.t.end(sp)
	return nil
}

func (r *replay) acquire(rid, root int64, want int) (int, error) {
	sp := r.t.begin(rid, root, "service.pool_wait")
	got, err := r.pool.AcquireUpTo(context.Background(), want)
	r.t.end(sp)
	return got, err
}

// explore replays POST /v1/explore: decode, key, tier lookup, pool,
// then the delta tier, the sharded fan-out or a recorded cold sweep,
// and finally encode and the cache writes.
func (r *replay) explore(rid, root int64, op Op, prefix bool, tl *replayTally) (string, error) {
	ctx := context.Background()
	sp := r.t.begin(rid, root, "service.decode")
	var body service.RequirementsRequest
	err := strictDecode(op.Body, &body)
	r.t.end(sp)
	if err != nil {
		return "", err
	}
	req := body.Requirements
	sp = r.t.begin(rid, root, "service.key")
	v := req.Violations()
	key := service.HashKey("explore", req.CanonicalKey())
	r.t.end(sp)
	if len(v) > 0 {
		return "", fmt.Errorf("invalid request: %v", v)
	}
	if tier, ok := r.lookup(rid, root, key); ok {
		return tier, nil
	}
	got, err := r.acquire(rid, root, r.workers)
	if err != nil {
		return "", err
	}
	var resp *service.ExploreResponse
	var stats core.ExploreStats
	tier := tierMiss
	if e := r.deltas.lookup(req); e != nil {
		tier = tierDelta
		sp = r.t.begin(rid, root, "core.delta")
		e.mu.Lock()
		var res *core.DeltaResult
		resp, res, err = service.BuildExploreDelta(ctx, e.state, req, got)
		e.mu.Unlock()
		r.t.end(sp)
		if err == nil {
			stats = res.Stats
			tl.deltaReused += res.Reused
			tl.deltaSwept += res.Swept
		}
	} else if r.sharded {
		resp, stats, err = r.shardedExplore(rid, root, req, got)
	} else {
		sp = r.t.begin(rid, root, "core.delta_record")
		st, serr := core.NewDeltaState(req)
		r.t.end(sp)
		if serr != nil {
			r.pool.Release(got)
			return "", serr
		}
		sp = r.t.begin(rid, root, "core.sweep")
		resp, err = service.BuildExplore(ctx, req, got, func(s core.ExploreStats) {
			if s.Done {
				stats = s
			}
		}, core.WithObserver(st.Observe))
		r.t.end(sp)
		if err == nil {
			sp = r.t.begin(rid, root, "core.delta_record")
			st.Seal()
			r.deltas.store(st)
			r.t.end(sp)
		}
	}
	r.pool.Release(got)
	if err != nil {
		return "", err
	}
	if tier == tierMiss {
		tl.sweptPoints += stats.Enumerated
	}
	if prefix {
		tl.points += stats.TotalPoints()
		tl.skipped += stats.Skipped
		tl.built += stats.TotalBuilt()
		tl.infeasible += stats.TotalInfeasible()
		tl.frontier += int64(len(resp.Frontier))
	}
	return tier, r.fill(rid, root, key, resp)
}

// shardExec sweeps one partition in-process, like the daemon's local
// shard executor, under a core.sweep span.
type shardExec struct {
	t        *tracer
	rid, run int64
	req      core.Requirements
	workers  int

	mu                  sync.Mutex
	enumerated, skipped int64
}

func (e *shardExec) Kind() string { return shard.KindLocal }

func (e *shardExec) Execute(ctx context.Context, p shard.Partition) (shard.Result, error) {
	sp := e.t.begin(e.rid, e.run, "core.sweep")
	defer e.t.end(sp)
	var final core.ExploreStats
	ch, err := core.ExploreContext(ctx, e.req,
		core.WithWorkers(e.workers),
		core.WithPruning(),
		core.WithSeqRange(p.From, p.To),
		core.WithProgress(func(s core.ExploreStats) {
			if s.Done {
				final = s
			}
		}))
	if err != nil {
		return shard.Result{}, err
	}
	front := core.NewFrontier()
	for c := range ch {
		front.Add(c)
	}
	if err := ctx.Err(); err != nil {
		return shard.Result{}, err
	}
	e.mu.Lock()
	e.enumerated += final.Enumerated
	e.skipped += final.Skipped
	e.mu.Unlock()
	return shard.Result{
		Enumerated: final.TotalPoints(),
		Built:      final.TotalBuilt(),
		Infeasible: final.TotalInfeasible(),
		Frontier:   front.Candidates(),
	}, nil
}

// shardedExplore replays the daemon's local fan-out: plan, run the
// partitions on one local executor, merge, and rebuild the response.
func (r *replay) shardedExplore(rid, root int64, req core.Requirements, workers int) (*service.ExploreResponse, core.ExploreStats, error) {
	sp := r.t.begin(rid, root, "shard.plan")
	plan := shard.Plan(0, core.SweepCount(req), shardParts)
	r.t.end(sp)
	run := r.t.begin(rid, root, "shard.run")
	ex := &shardExec{t: r.t, rid: rid, run: run, req: req, workers: workers}
	out, _, err := shard.Run(context.Background(), []shard.Executor{ex}, plan, shard.Options{})
	r.t.end(run)
	if err != nil {
		return nil, core.ExploreStats{}, err
	}
	sp = r.t.begin(rid, root, "shard.merge")
	merged := shard.Merge(out)
	r.t.end(sp)
	sp = r.t.begin(rid, root, "service.assemble")
	resp := exploreFromMerged(req, merged)
	r.t.end(sp)
	// Partition results carry totals with skipped subspaces folded in;
	// the executor kept the evaluated and skipped split.
	stats := core.ExploreStats{
		Enumerated: ex.enumerated,
		Skipped:    ex.skipped,
		Built:      merged.Built,
		Infeasible: merged.Infeasible,
	}
	return resp, stats, nil
}

// exploreFromMerged rebuilds the explore response from a merged shard
// result, as the daemon's sharded path does.
func exploreFromMerged(req core.Requirements, m shard.Result) *service.ExploreResponse {
	resp := &service.ExploreResponse{
		SchemaVersion: service.SchemaVersion,
		Request:       req,
		Key:           service.HashKey("explore", req.CanonicalKey()),
		Points:        m.Enumerated,
		Built:         m.Built,
		Infeasible:    m.Infeasible,
		Pruned:        m.Built - m.Infeasible - int64(len(m.Frontier)),
		Frontier:      []service.CandidateJSON{},
		Picks:         []service.RecommendationJSON{},
	}
	for _, c := range m.Frontier {
		resp.Frontier = append(resp.Frontier, wireCandidate(c))
	}
	for _, rec := range core.Quantize(m.Frontier) {
		resp.Picks = append(resp.Picks, service.RecommendationJSON{Role: rec.Role, CandidateJSON: wireCandidate(rec.Candidate)})
	}
	return resp
}

func wireCandidate(c core.Candidate) service.CandidateJSON {
	out := service.CandidateJSON{
		Seq: c.Seq, Spec: c.Spec, Macros: c.Macros,
		AreaMm2: c.AreaMm2, PowerMW: c.PowerMW, PeakGBps: c.PeakGBps,
		SustainedGBps: c.SustainedGBps, DieYield: c.DieYield,
		CostUSD: c.CostUSD, CostPerMbitUSD: c.CostPerMbitUSD,
		Feasible: c.Feasible, Reasons: c.Reasons,
	}
	if c.Macro != nil {
		out.ClockMHz = c.Macro.ClockMHz
	}
	return out
}

// simulate replays POST /v1/simulate: decode, key, tier lookup, one
// pool slot, then edram.Build and the sched run, the response, encode
// and the cache writes. The request's canonical key is not exported,
// so service.key covers Violations and hashing the spec key with the
// body, an approximation of the daemon's key work.
func (r *replay) simulate(rid, root int64, op Op, prefix bool, tl *replayTally) (string, error) {
	sp := r.t.begin(rid, root, "service.decode")
	var req service.SimulateRequest
	err := strictDecode(op.Body, &req)
	r.t.end(sp)
	if err != nil {
		return "", err
	}
	sp = r.t.begin(rid, root, "service.key")
	v := req.Violations(maxSimRequests)
	key := service.HashKey("simulate", req.Spec.CanonicalKey()+"|"+string(op.Body))
	r.t.end(sp)
	if len(v) > 0 {
		return "", fmt.Errorf("invalid request: %v", v)
	}
	if tier, ok := r.lookup(rid, root, key); ok {
		return tier, nil
	}
	got, err := r.acquire(rid, root, 1)
	if err != nil {
		return "", err
	}
	res, err := r.simulateRun(rid, root, req)
	r.pool.Release(got)
	if err != nil {
		return "", err
	}
	for _, c := range res.Clients {
		tl.simReqs += int64(c.Stats.Count)
	}
	if prefix {
		tl.simOps++
		tl.simSustained += res.SustainedFraction
		tl.simHitRate += res.HitRate
		tl.simDurationNs += res.DurationNs
	}
	sp = r.t.begin(rid, root, "service.assemble")
	resp := simulateResponse(req, key, res)
	r.t.end(sp)
	return tierMiss, r.fill(rid, root, key, resp)
}

// simulateRun builds the macro (edram.build) and runs the controller
// simulation (sched.run), as service.BuildSimulate does.
func (r *replay) simulateRun(rid, root int64, req service.SimulateRequest) (sched.Result, error) {
	sp := r.t.begin(rid, root, "edram.build")
	m, err := edram.Build(req.Spec)
	r.t.end(sp)
	if err != nil {
		return sched.Result{}, err
	}
	sp = r.t.begin(rid, root, "sched.run")
	defer r.t.end(sp)
	policy, err := scenario.ParsePolicy(req.Options.Policy)
	if err != nil {
		return sched.Result{}, err
	}
	clients := make([]sched.Client, len(req.Clients))
	for i, c := range req.Clients {
		clients[i] = sched.Client{Name: c.Name, Gen: c.Generator(i, m.Geometry.InterfaceBits), LatencyBudgetNs: c.LatencyBudgetNs}
	}
	cfg := m.DeviceConfig()
	mp, err := mapping.NewBankInterleaved(mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8})
	if err != nil {
		return sched.Result{}, err
	}
	return sched.RunWithOptions(cfg, mp, sched.Options{
		Policy:        policy,
		ClosedPage:    req.Options.ClosedPage,
		ReorderWindow: req.Options.ReorderWindow,
	}, clients)
}

func simulateResponse(req service.SimulateRequest, key string, res sched.Result) *service.SimulateResponse {
	resp := &service.SimulateResponse{
		SchemaVersion:     service.SchemaVersion,
		Spec:              req.Spec,
		Key:               key,
		Policy:            res.Policy.String(),
		PeakGBps:          res.PeakGBps,
		SustainedGBps:     res.SustainedGBps,
		SustainedFraction: res.SustainedFraction,
		HitRate:           res.HitRate,
		DurationNs:        res.DurationNs,
		Clients:           []service.ClientResultJSON{},
	}
	for _, cr := range res.Clients {
		resp.Clients = append(resp.Clients, service.ClientResultJSON{
			Name: cr.Name, Requests: cr.Stats.Count, AchievedGBps: cr.AchievedGBps,
			BitsMoved: cr.BitsMoved, MeanNs: cr.Stats.MeanNs, P50Ns: cr.Stats.P50Ns,
			P95Ns: cr.Stats.P95Ns, P99Ns: cr.Stats.P99Ns, MaxNs: cr.Stats.MaxNs,
			MaxFIFODepth: cr.Stats.MaxFIFODepth,
		})
	}
	return resp
}

// traced replays the window's ops with spans and fills the per-layer
// metrics. It returns the number of replayed ops the replay or its
// serve probe could not serve as the schedule predicts.
func traced(o options, dep *deployment, load *loadRun, rep *checkReport, m map[string]metric, log io.Writer) (int, error) {
	r, err := newReplay(dep, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	// The replay gets half the window's length once the prefix is done.
	tally, counts := r.run(load.ops, time.Duration(o.seconds)*time.Second/2, log)
	if err := r.close(); err != nil {
		return 0, err
	}

	var e2e []time.Duration
	for c, n := range counts {
		for i := 0; i < n; i++ {
			e2e = append(e2e, load.records[c].at(i).lat)
		}
	}
	costs := r.t.selfTimes()
	b := makeBudget(costs, tally.ops, e2e)
	b.format(o.workload, log)
	if err := writeTrace(o.out, o.workload, r.t, b); err != nil {
		return 0, err
	}

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	perCall := func(name string) float64 {
		c := costs[name]
		if c == nil || c.calls == 0 {
			return 0
		}
		return us(c.self) / float64(c.calls)
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	counter := func(series string) float64 { return load.after[series] - load.before[series] }

	// service
	set("service.serve_us", "us", us(b.serve))
	set("service.transport_us", "us", us(b.transport))
	for _, n := range []string{"decode", "key", "cache_get", "cache_put", "encode", "pool_wait"} {
		set("service."+n+"_us", "us", perCall("service."+n))
	}
	for _, t := range tierNames {
		set("service.tier."+t, "count", float64(rep.headerTiers[t]))
	}
	set("error_frac", "ratio", ratio(float64(rep.failed), float64(rep.attempted)))

	// core
	set("core.sweep_us", "us", perCall("core.sweep"))
	set("core.frontier_add_us", "us", perCall(spanFront))
	set("core.delta_record_us", "us", perCall("core.delta_record"))
	var sweepSelf time.Duration
	if c := costs["core.sweep"]; c != nil {
		sweepSelf = c.self
	}
	set("core.points_per_s", "1/s", ratio(float64(tally.sweptPoints), sweepSelf.Seconds()))
	set("core.points", "count", float64(tally.points))
	set("core.skipped", "count", float64(tally.skipped))
	set("core.built", "count", float64(tally.built))
	set("core.infeasible", "count", float64(tally.infeasible))
	set("core.frontier_size", "count", float64(tally.frontier))
	set("core.prune_skip_ratio", "ratio", ratio(float64(tally.skipped), float64(tally.points)))
	set("core.delta_us", "us", perCall("core.delta"))
	set("core.delta_reused", "count", float64(tally.deltaReused))
	set("core.delta_swept", "count", float64(tally.deltaSwept))
	set("core.delta_reuse_ratio", "ratio", ratio(float64(tally.deltaReused), float64(tally.deltaReused+tally.deltaSwept)))

	// diskcache: the served daemon's own disk tier over the window.
	puts := float64(load.diskAfter.Puts - load.diskBefore.Puts)
	dropped := float64(load.diskAfter.DroppedWrites - load.diskBefore.DroppedWrites)
	persisted := 1.0
	if puts > 0 {
		persisted = (puts - dropped) / puts
	}
	set("diskcache.open_ms", "ms", r.openMs)
	set("diskcache.get_us", "us", perCall("diskcache.get"))
	set("diskcache.put_us", "us", perCall("diskcache.put"))
	set("diskcache.dropped_writes", "count", dropped)
	set("diskcache.persisted_ratio", "ratio", persisted)
	set("diskcache.compactions", "count", float64(load.diskAfter.Compactions-load.diskBefore.Compactions))
	set("diskcache.entries", "count", float64(load.diskAfter.Entries))

	// shard: timings from the replay, counts from the daemon's counters.
	set("shard.plan_us", "us", perCall("shard.plan"))
	set("shard.merge_us", "us", perCall("shard.merge"))
	set("shard.parts", "count", counter(`edramd_shard_partitions_total{target="local"}`)+counter(`edramd_shard_partitions_total{target="remote"}`))
	set("shard.retries", "count", counter(`edramd_shard_retries_total`))
	set("shard.hedges", "count", counter(`edramd_shard_hedges_total`))

	// simulator
	set("edram.build_us", "us", perCall("edram.build"))
	set("sched.run_us", "us", perCall("sched.run"))
	var runSelf time.Duration
	if c := costs["sched.run"]; c != nil {
		runSelf = c.self
	}
	set("sched.sim_reqs_per_s", "1/s", ratio(float64(tally.simReqs), runSelf.Seconds()))
	n := float64(tally.simOps)
	set("sim.sustained_fraction", "ratio", ratio(tally.simSustained, n))
	set("sim.page_hit_rate", "ratio", ratio(tally.simHitRate, n))
	set("sim.duration_ns", "ns", ratio(tally.simDurationNs, n))

	// budget and tracing: the overhead is what recording the spans
	// cost, as a share of the replay's root spans.
	set("budget.unexplained_frac", "ratio", b.unexplainedFrac())
	var rootTime int64
	for _, s := range r.t.spans {
		if s.Parent == 0 {
			rootTime += s.End - s.Start
		}
	}
	set("trace.overhead_frac", "ratio", ratio(float64(spanCost().Nanoseconds()*int64(len(r.t.spans))), float64(rootTime)))
	return tally.failed, nil
}
