package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"edram/internal/diskcache"
	"edram/internal/service"
)

// opRecord is what one client observed for one op. The op itself is
// not stored: the schedule regenerates it from the seed.
type opRecord struct {
	lat    time.Duration // send to last body byte
	end    time.Duration // last body byte, from the window's start
	sum    uint64        // maphash of the response body
	status int16         // -1 for a transport error
	tier   int8          // index into tierNames, -1 for anything else
}

// bodySeed seeds the response-body hashes of one process.
var bodySeed = maphash.MakeSeed()

// recordChunk is the allocation unit of a recordLog.
const recordChunk = 1 << 16

// recordLog is one client's op records in send order. A warm window
// records a few hundred thousand ops, so the records live outside the
// Go heap, in anonymous mappings of fixed size: they add only their
// touched pages to max_rss_mb, never the garbage collector's headroom
// over them, and they never move or double.
type recordLog struct {
	mem    [][]byte
	chunks [][]opRecord
	n      int
	// errs keeps the transport errors by op index.
	errs map[int]error
}

func (l *recordLog) add(r opRecord) error {
	if l.n%recordChunk == 0 {
		mem, err := syscall.Mmap(-1, 0, recordChunk*int(unsafe.Sizeof(opRecord{})),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("mapping op records: %w", err)
		}
		l.mem = append(l.mem, mem)
		l.chunks = append(l.chunks, unsafe.Slice((*opRecord)(unsafe.Pointer(&mem[0])), recordChunk))
	}
	l.chunks[l.n/recordChunk][l.n%recordChunk] = r
	l.n++
	return nil
}

func (l *recordLog) len() int { return l.n }

func (l *recordLog) at(i int) *opRecord { return &l.chunks[i/recordChunk][i%recordChunk] }

// release unmaps the records.
func (l *recordLog) release() {
	for _, m := range l.mem {
		syscall.Munmap(m) // only fails for a mapping that is not one
	}
	l.mem, l.chunks, l.n = nil, nil, 0
}

// loadRun is the outcome of one timed closed-loop window.
type loadRun struct {
	records []*recordLog // per client
	// ops are the ops each client sent, regenerated from the seed
	// after the window.
	ops [][]Op
	// maxRSS is the process's peak resident set at the end of the
	// window, in bytes.
	maxRSS int64
	// metrics are the server's /metrics counters before and after.
	before, after map[string]float64
	// disk is the server's disk-tier counter snapshot around the window.
	diskBefore, diskAfter diskcache.Stats
}

// regenerate fills run.ops: each client's ops of the window, drawn
// again from generators with the window's seed.
func (run *loadRun) regenerate(workload string, seed int64) {
	run.ops = make([][]Op, len(run.records))
	for c, l := range run.records {
		g := newGenerator(workload, seed, c, len(run.records))
		run.ops[c] = make([]Op, l.len())
		for i := range run.ops[c] {
			run.ops[c][i] = g.next()
		}
	}
}

// release frees the window's records.
func (run *loadRun) release() {
	for _, l := range run.records {
		l.release()
	}
}

// runLoad serves srv on a loopback listener and drives it as a closed
// loop: each client sends its next op only after the previous reply's
// last byte arrived, on its own keep-alive connection, until the
// window ends. The server is shut down before runLoad returns.
func runLoad(srv *service.Server, gens []*generator, window time.Duration) (*loadRun, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a })
	}()
	var addr string
	select {
	case a := <-addrc:
		addr = a.String()
	case err := <-served:
		return nil, fmt.Errorf("serving: %w", err)
	}

	run, loadErr := drive(addr, srv, gens, window)
	cancel()
	// ListenAndServe drains, closes the server (disk snapshot
	// included) and only then returns.
	if err := <-served; err != nil && loadErr == nil {
		loadErr = fmt.Errorf("shutting the server down: %w", err)
	}
	return run, loadErr
}

func drive(addr string, srv *service.Server, gens []*generator, window time.Duration) (*loadRun, error) {
	clients := make([]*client, len(gens))
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.conn.Close()
		clients[i] = c
	}
	run := &loadRun{records: make([]*recordLog, len(gens))}
	for c := range run.records {
		run.records[c] = &recordLog{errs: map[int]error{}}
	}
	var err error
	if run.before, err = scrapeMetrics(clients[0]); err != nil {
		return nil, err
	}
	run.diskBefore = srv.DiskStats()

	// Start the window on a collected heap: garbage from the setup
	// lives is not the window's.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	addErrs := make([]error, len(gens))
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			log := run.records[c]
			for time.Now().Before(deadline) {
				rec, err := send(clients[c], gens[c].next(), &buf, start)
				if err != nil {
					log.errs[log.len()] = err
				}
				if err := log.add(rec); err != nil {
					addErrs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	run.maxRSS = maxRSS()
	for _, err := range addErrs {
		if err != nil {
			return nil, err
		}
	}

	if run.after, err = scrapeMetrics(clients[0]); err != nil {
		return nil, err
	}
	run.diskAfter = srv.DiskStats()
	return run, nil
}

// client is one closed-loop caller on its own keep-alive connection.
// It speaks HTTP/1.1 on the calling goroutine, writing the request and
// reading the reply itself, so no connection pool and no per-connection
// goroutines of http.Client sit between the timer and the socket.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	host string
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10), host: addr}, nil
}

// do sends one request and reads the whole reply body into body.
func (c *client) do(method, path string, reqBody []byte, body *bytes.Buffer) (*http.Response, error) {
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, c.host, len(reqBody))
	c.bw.Write(reqBody)
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp, err
}

// send issues one op and reads the whole reply. Only the request and
// the reply are timed; hashing the body happens after. window is the
// start of the timed window.
func send(c *client, op Op, buf *bytes.Buffer, window time.Time) (opRecord, error) {
	rec := opRecord{status: -1, tier: -1}
	start := time.Now()
	resp, err := c.do(http.MethodPost, op.Path, op.Body, buf)
	done := time.Now()
	rec.lat, rec.end = done.Sub(start), done.Sub(window)
	if err != nil {
		return rec, err
	}
	rec.status = int16(resp.StatusCode)
	rec.tier = tierIndex(resp.Header.Get("X-Cache"))
	rec.sum = maphash.Bytes(bodySeed, buf.Bytes())
	return rec, nil
}

// scrapeMetrics reads /metrics into a map from series (name plus
// labels, as rendered) to value.
func scrapeMetrics(c *client) (map[string]float64, error) {
	var b bytes.Buffer
	resp, err := c.do(http.MethodGet, "/metrics", nil, &b)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterTiers converts /metrics counter deltas into per-tier serve
// counts, the server-side twin of the X-Cache header tally. Every
// computing flight leader counts one cache miss, including the ones
// the delta tier served, so misses are the remainder.
func counterTiers(before, after map[string]float64) map[string]int64 {
	d := func(series string) int64 { return int64(after[series] - before[series]) }
	delta := d(`edramd_cache_tier_hits_total{tier="delta"}`)
	return map[string]int64{
		tierHit:       d(`edramd_cache_tier_hits_total{tier="memory"}`),
		tierDisk:      d(`edramd_cache_tier_hits_total{tier="disk"}`),
		tierDelta:     delta,
		tierMiss:      d(`edramd_cache_misses_total`) - delta,
		tierCoalesced: d(`edramd_coalesced_requests_total`),
	}
}

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
