package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call of the traced replay: its name, its interval
// on the tracer's clock, the span that caused it (0 for a root) and
// the op (request) it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them at the end.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(req, parent int64, name string) int64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCost aggregates one span name.
type layerCost struct {
	calls     int
	self, dur time.Duration
}

// selfTimes returns, per span name, the call count, the summed
// duration and the summed self time: a span's duration minus the part
// of its interval that its children cover.
func (t *tracer) selfTimes() map[string]*layerCost {
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerCost{}
	for _, s := range t.spans {
		kids := children[s.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			ivs = append(ivs, [2]int64{t.spans[k].Start, t.spans[k].End})
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		c := out[s.Name]
		if c == nil {
			c = &layerCost{}
			out[s.Name] = c
		}
		c.calls++
		c.dur += time.Duration(s.End - s.Start)
		c.self += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanCost measures what recording one span costs, by recording many
// empty ones on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(1, 0, "calibrate"))
	}
	return time.Since(start) / n
}

// Span names. The op root's children are the layers a request's time
// goes through; probe roots hold measurements taken beside the
// request path, which the budget does not add up.
const (
	spanOp    = "op"
	spanProbe = "probe"
	spanServe = "service.serve"
	spanFront = "core.frontier_add"
)

// budgetRow is one line of a latency budget.
type budgetRow struct {
	layer string
	calls int
	perOp time.Duration
}

// budget is the per-workload latency budget: the end-to-end mean
// latency of the replayed ops beside each layer's self time per op.
// transport is the end-to-end latency minus the in-process serve time;
// unexplained is what neither transport nor the layers account for.
type budget struct {
	ops                    int
	e2eMean, e2eP50, serve time.Duration
	transport, unexplained time.Duration
	rows                   []budgetRow
	glue                   time.Duration // the replay's own code between layer calls, per op
}

func makeBudget(costs map[string]*layerCost, ops int, e2e []time.Duration) budget {
	b := budget{ops: ops}
	if ops == 0 {
		return b
	}
	var sum time.Duration
	sorted := append([]time.Duration(nil), e2e...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		sum += d
	}
	b.e2eMean = sum / time.Duration(len(sorted))
	b.e2eP50 = sorted[(len(sorted)-1)/2]
	if c := costs[spanServe]; c != nil && c.calls > 0 {
		b.serve = c.dur / time.Duration(c.calls)
	}
	b.transport = b.e2eMean - b.serve
	explained := b.transport
	for name, c := range costs {
		switch name {
		case spanOp:
			b.glue = c.self / time.Duration(ops)
			continue
		case spanProbe, spanServe, spanFront:
			continue
		}
		row := budgetRow{layer: name, calls: c.calls, perOp: c.self / time.Duration(ops)}
		b.rows = append(b.rows, row)
		explained += row.perOp
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].perOp > b.rows[j].perOp })
	b.unexplained = b.e2eMean - explained
	return b
}

func (b budget) unexplainedFrac() float64 {
	if b.e2eMean <= 0 {
		return 0
	}
	return float64(b.unexplained) / float64(b.e2eMean)
}

// format renders the budget as a table.
func (b budget) format(workload string, w io.Writer) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	share := func(d time.Duration) float64 {
		if b.e2eMean <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(b.e2eMean)
	}
	fmt.Fprintf(w, "budget %s: %d replayed ops; end-to-end mean %.1f us, p50 %.1f us; in-process serve %.1f us\n",
		workload, b.ops, us(b.e2eMean), us(b.e2eP50), us(b.serve))
	fmt.Fprintf(w, "  %-22s %8s %12s %7s\n", "layer", "calls", "self us/op", "share")
	fmt.Fprintf(w, "  %-22s %8s %12.1f %6.1f%%\n", "service.transport", "-", us(b.transport), share(b.transport))
	for _, r := range b.rows {
		fmt.Fprintf(w, "  %-22s %8d %12.1f %6.1f%%\n", r.layer, r.calls, us(r.perOp), share(r.perOp))
	}
	fmt.Fprintf(w, "  %-22s %8s %12.1f %6.1f%%\n", "unexplained", "-", us(b.unexplained), share(b.unexplained))
	fmt.Fprintf(w, "  (replay glue outside any layer: %.1f us/op)\n", us(b.glue))
}

// writeTrace stores the spans and the budget table under
// <out>/perfbench-traces, one pair of files per workload (a later
// traced run of the workload replaces them).
func writeTrace(out, workload string, t *tracer, b budget) error {
	dir := filepath.Join(out, "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := t.write(filepath.Join(dir, workload+".spans.jsonl")); err != nil {
		return err
	}
	var sb strings.Builder
	b.format(workload, &sb)
	return os.WriteFile(filepath.Join(dir, workload+".budget.txt"), []byte(sb.String()), 0o644)
}
