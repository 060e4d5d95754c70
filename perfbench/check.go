package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"

	"edram/internal/service"
)

// checkReport is the untimed verdict on a window's ops.
type checkReport struct {
	attempted, failed int
	// headerTiers tallies the X-Cache values the clients saw;
	// counterTiers is the same tally from the /metrics deltas.
	headerTiers, counterTiers map[string]int64
	tallyMismatch             int64
}

// expectedSum hashes the reference response bytes for one request,
// computed directly through the builders and the canonical encoder,
// bypassing the server and every cache.
func expectedSum(req *request) (uint64, error) {
	var resp any
	var err error
	if req.Sim != nil {
		resp, err = service.BuildSimulate(*req.Sim)
	} else {
		resp, err = service.BuildExplore(context.Background(), *req.Explore, 1, nil)
	}
	if err != nil {
		return 0, err
	}
	b, err := service.Encode(resp)
	if err != nil {
		return 0, err
	}
	return maphash.Bytes(bodySeed, b), nil
}

// expectedSums computes the reference for every distinct body the
// window sent, on par goroutines.
func expectedSums(ops [][]Op, par int) (map[string]uint64, error) {
	var reqs []*request
	seen := map[string]bool{}
	for _, client := range ops {
		for _, op := range client {
			if !seen[string(op.Body)] {
				seen[string(op.Body)] = true
				reqs = append(reqs, op.request)
			}
		}
	}
	sums := make([]uint64, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += par {
				sums[i], errs[i] = expectedSum(reqs[i])
			}
		}(w)
	}
	wg.Wait()
	out := make(map[string]uint64, len(reqs))
	for i, r := range reqs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", r.Body, errs[i])
		}
		out[string(r.Body)] = sums[i]
	}
	return out, nil
}

// check verifies every op of the window: no transport error, status
// 200, an X-Cache value the schedule allows, and response bytes equal
// to a direct build of the same request. It then requires the header
// tier tally to equal the /metrics counter deltas; each unit of
// difference counts as one failed op. The first few failures are
// described on log.
func check(run *loadRun, par int, log io.Writer) (*checkReport, error) {
	want, err := expectedSums(run.ops, par)
	if err != nil {
		return nil, err
	}
	rep := &checkReport{headerTiers: map[string]int64{}}
	shown := 0
	for c, l := range run.records {
		for i := 0; i < l.len(); i++ {
			r, op := l.at(i), run.ops[c][i]
			rep.attempted++
			tier := "(none)"
			if r.tier >= 0 {
				tier = tierNames[r.tier]
			}
			var why string
			switch {
			case r.status < 0:
				why = l.errs[i].Error()
			case r.status != http.StatusOK:
				why = fmt.Sprintf("status %d", r.status)
			case !op.Allowed.has(tier):
				why = fmt.Sprintf("X-Cache %s not allowed by the schedule", tier)
			case r.sum != want[string(op.Body)]:
				why = "response bytes differ from a direct build"
			}
			if r.status >= 0 {
				rep.headerTiers[tier]++
			}
			if why != "" {
				rep.failed++
				if shown < 5 {
					shown++
					fmt.Fprintf(log, "perfbench: client %d op %d failed: %s; body %s\n", c, i, why, op.Body)
				}
			}
		}
	}
	rep.counterTiers = counterTiers(run.before, run.after)
	for _, t := range tierNames {
		d := rep.headerTiers[t] - rep.counterTiers[t]
		if d < 0 {
			d = -d
		}
		if d != 0 {
			fmt.Fprintf(log, "perfbench: tier %s: headers say %d, /metrics says %d\n", t, rep.headerTiers[t], rep.counterTiers[t])
		}
		rep.tallyMismatch += d
	}
	rep.failed += int(rep.tallyMismatch)
	return rep, nil
}
