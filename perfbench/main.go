// Command perfbench is the edramd benchmark. It drives an in-process
// service.Server over loopback HTTP as a closed loop of clients, checks
// every reply outside the timed window, and prints one JSON result
// line. With --trace 1 it also replays the window's ops through each
// layer's public functions and reports per-layer costs and a latency
// budget. README.md in this directory describes the workloads and
// metrics; run.sh builds and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// clients is the closed loop's size: the callers this daemon serves
// each wait for their reply, and the reference host has 2 CPUs.
const clients = 2

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp describes the conditions of a run; it is printed on the line
// before the result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"clients"`
	Ops        int    `json:"ops"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	fset.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fset.Int64Var(&o.seed, "seed", 1, "schedule seed")
	fset.IntVar(&o.seconds, "seconds", 14, "length of the timed window in seconds")
	fset.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
	fset.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and trace output")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	switch {
	case !known:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case clients > runtime.NumCPU():
		fmt.Fprintf(stderr, "perfbench: %d clients on %d CPUs; a closed loop of more clients than CPUs measures the scheduler, not the daemon\n", clients, runtime.NumCPU())
		return 2
	}

	res, ops, err := benchmark(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	st := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Clients: clients, Ops: ops,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// benchmark runs one workload end to end and returns the result and
// the number of ops the timed window sent.
func benchmark(o options, log io.Writer) (*result, int, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, 0, err
	}
	work, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(work)

	dep, err := newDeployment(work, o.workload == wlSharded)
	if err != nil {
		return nil, 0, err
	}
	srv, setupTimes, err := dep.setup(setupLives / 2)
	if err != nil {
		return nil, 0, err
	}
	gens := make([]*generator, clients)
	for c := range gens {
		gens[c] = newGenerator(o.workload, o.seed, c, clients)
	}
	load, err := runLoad(srv, gens, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer load.release()
	load.regenerate(o.workload, o.seed)
	rep, err := check(load, clients, log)
	if err != nil {
		return nil, 0, err
	}
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if o.trace {
		replayFailed, err := traced(o, dep, load, rep, res.Metrics, log)
		if err != nil {
			return nil, 0, err
		}
		res.Failed += replayFailed
	} else {
		late, err := dep.timeLives(setupLives - setupLives/2)
		if err != nil {
			return nil, 0, err
		}
		endToEnd(load, o.seconds, append(setupTimes, late...), res.Metrics, log)
	}
	res.Correct = res.Failed == 0
	return res, rep.attempted, nil
}

// blockOps is the fewest ops a block of the window holds: its p99 then
// has at least ten samples beyond it.
const blockOps = 1000

// endToEnd fills the user-visible metrics of the untraced window.
//
// The window's ops, in the order they completed, are cut into blocks of
// equal op count: one block per second of window, or fewer so that each
// holds at least blockOps ops. p50_ms, p99_ms and throughput_rps are
// medians over the blocks of each block's own figure. The host's CPU is
// shared, and a stretch in which it is taken away inflates the blocks
// it falls in; a median over blocks is not moved by it until it covers
// half the window, where a single p99 over the whole window is.
func endToEnd(load *loadRun, seconds int, setupTimes []time.Duration, m map[string]metric, log io.Writer) {
	var ops []opRecord
	for _, l := range load.records {
		for i := 0; i < l.len(); i++ {
			ops = append(ops, *l.at(i))
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	blocks := min(len(ops)/blockOps, seconds)
	if blocks < 1 {
		blocks = 1
		fmt.Fprintf(log, "perfbench: %d samples; p99_ms needs at least %d and is not reported\n", len(ops), blockOps)
	}
	var p50, p99, rps []float64
	var from time.Duration // end of the previous block
	for b := 0; b < blocks; b++ {
		blk := ops[b*len(ops)/blocks : (b+1)*len(ops)/blocks]
		lat := make([]float64, len(blk))
		ok := 0
		for i, r := range blk {
			lat[i] = float64(r.lat.Nanoseconds()) / 1e6
			if r.status == 200 {
				ok++
			}
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		to := blk[len(blk)-1].end
		rps = append(rps, float64(ok)/(to-from).Seconds())
		from = to
	}
	fmt.Fprintf(log, "perfbench: %d ops in %d blocks\n", len(ops), blocks)
	m["p50_ms"] = metric{median(p50), "ms"}
	if len(ops) >= blockOps {
		m["p99_ms"] = metric{median(p99), "ms"}
	}
	m["throughput_rps"] = metric{median(rps), "1/s"}
	setup := make([]float64, len(setupTimes))
	for i, d := range setupTimes {
		setup[i] = d.Seconds()
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["max_rss_mb"] = metric{float64(load.maxRSS) / (1 << 20), "MB"}
}

// median returns the median of values, sorting them.
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// commit identifies the code under test: the VCS revision the binary
// was built from when the build saw one, otherwise a hash of the
// module's Go sources and go.mod files (the benchmark runs from plain
// source checkouts too).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
