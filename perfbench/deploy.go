package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edram/internal/service"
)

// setupLives is how many server lives each run times for setup_s; the
// metric is their median. They are split between the start of the run
// and its end (after the window and the check), so that the host's
// speed swings, which last seconds, reach the median from two points
// in time rather than one.
const setupLives = 16

// deployment is the daemon as an operator runs it: default memory LRU
// and TTL, a disk tier that an earlier life pre-populated, and a
// Warmup list of 8 structural families. Every server life of a run
// starts from its own copy of the pre-populated disk directory.
type deployment struct {
	dir     string // the run's scratch directory
	prepop  string // the earlier life's disk tier, never served from directly
	sharded bool
	lives   int
}

// newDeployment runs the untimed earlier life: it warms the families
// and computes every disk body, then closes, which snapshots the disk
// tier.
func newDeployment(dir string, sharded bool) (*deployment, error) {
	d := &deployment{dir: dir, prepop: filepath.Join(dir, "prepop"), sharded: sharded}
	srv := service.NewServer(service.Config{CacheDir: d.prepop})
	if err := srv.DiskCacheErr(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("opening the disk tier: %w", err)
	}
	if err := srv.Warmup(context.Background(), warmFamilies()); err != nil {
		srv.Close()
		return nil, fmt.Errorf("earlier life warmup: %w", err)
	}
	for _, req := range diskBodies() {
		op := exploreOp(req, tiers(tierMiss))
		status, tier, body := serveInProcess(srv, op)
		if status != http.StatusOK || tier != tierMiss {
			srv.Close()
			return nil, fmt.Errorf("earlier life: %s answered %d %q: %s", op.Body, status, tier, body)
		}
	}
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("earlier life close: %w", err)
	}
	return d, nil
}

// config is the serving configuration: defaults everywhere, plus the
// disk directory and, on explore-sharded, two local shard partitions.
func (d *deployment) config(cacheDir string) service.Config {
	cfg := service.Config{CacheDir: cacheDir}
	if d.sharded {
		cfg.ShardParts = 2
	}
	return cfg
}

// freshCacheDir copies the pre-populated disk tier into a new
// directory for one server life.
func (d *deployment) freshCacheDir() (string, error) {
	d.lives++
	dst := filepath.Join(d.dir, fmt.Sprintf("life-%d", d.lives))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(d.prepop)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(d.prepop, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// startLife brings one server up the way the daemon does: NewServer
// (which replays the disk tier), Warmup, MarkReady. It returns the
// server and the time from NewServer to ready.
func (d *deployment) startLife() (*service.Server, time.Duration, error) {
	dir, err := d.freshCacheDir()
	if err != nil {
		return nil, 0, err
	}
	// Collect the previous life's garbage first, so that none of it is
	// charged to this life's setup.
	runtime.GC()
	start := time.Now()
	srv := service.NewServer(d.config(dir))
	if err := srv.DiskCacheErr(); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("opening the disk tier: %w", err)
	}
	if err := srv.Warmup(context.Background(), warmFamilies()); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("warmup: %w", err)
	}
	srv.MarkReady()
	return srv, time.Since(start), nil
}

// timeLives starts and closes n lives and returns their setup times.
func (d *deployment) timeLives(n int) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		srv, took, err := d.startLife()
		if err != nil {
			return nil, err
		}
		times = append(times, took)
		if err := srv.Close(); err != nil {
			return nil, fmt.Errorf("closing setup life: %w", err)
		}
	}
	return times, nil
}

// setup times n-1 closed lives and then starts the serving life,
// returning it together with all n setup times.
func (d *deployment) setup(n int) (*service.Server, []time.Duration, error) {
	times, err := d.timeLives(n - 1)
	if err != nil {
		return nil, nil, err
	}
	srv, took, err := d.startLife()
	if err != nil {
		return nil, nil, err
	}
	return srv, append(times, took), nil
}

// serveInProcess runs one op through Server.ServeHTTP with a recorder.
func serveInProcess(srv *service.Server, op Op) (status int, tier string, body []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, op.Path, bytes.NewReader(op.Body))
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rec, req)
	res := rec.Result()
	b, _ := io.ReadAll(res.Body) // a recorder body is an in-memory buffer
	return res.StatusCode, res.Header.Get("X-Cache"), b
}
