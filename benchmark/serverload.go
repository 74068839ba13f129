package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pipette/internal/harness"
	"pipette/internal/server"
)

// mixSeed fixes the traffic pattern. The mix used to be shuffled and drawn
// from -seed; which cells that made hot moved wall_s by 9 % over ten seeds
// (interquartile range over median), far more than the system under test
// does, against 1.2 % with the pattern fixed. -seed now reaches the input
// generators only (harness.Config.Seed): same traffic, different data.
const mixSeed = 1

// jobMix draws n cells from keys, in the matrix's canonical order,
// Zipf-skewed (s = 1.2): a few cells are hot and duplicates are common, so
// the server's single-flight dedup and cache-hit paths both see traffic.
func jobMix(keys []harness.Key, n int, seed int64) []harness.Key {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
	mix := make([]harness.Key, n)
	for i := range mix {
		mix[i] = keys[zipf.Uint64()]
	}
	return mix
}

const tenants = 3

// jobSample is one job's client-side timings, in seconds.
type jobSample struct {
	submit, wait, result, total float64
}

// serverDriver is server_closed: a closed loop of opt.procs clients against
// an in-process server. Every round starts a new server on an empty data
// directory and sends the same job mix.
type serverDriver struct {
	cfg  harness.Config
	jobs int
	mix  []harness.Key

	truthDir string
	truth    *harness.Eval
	got      map[harness.Key][]byte // canonical cell per key, as the server returned it

	samples  []jobSample // every measured round's successful jobs
	perSec   []float64   // jobs per second, per measured round
	stats    server.Stats
	depthMax int
}

func (d *serverDriver) prepare(r *run) error {
	keys, _ := d.cfg.Matrix()
	if len(keys) == 0 {
		return fmt.Errorf("empty evaluation matrix")
	}
	d.mix = jobMix(keys, d.jobs, mixSeed)
	d.got = map[harness.Key][]byte{}
	return nil
}

func (d *serverDriver) close() { os.RemoveAll(d.truthDir) }

// warm computes the ground truth, a direct sweep over a private cache that
// shares nothing with any server, which also warms the simulator; a short
// loop against a throwaway server then warms the HTTP path.
func (d *serverDriver) warm(r *run, rec *roundRec) error {
	dir, err := os.MkdirTemp(r.opt.tmpRoot, "server-truth-*")
	if err != nil {
		return err
	}
	d.truthDir = dir
	t0 := time.Now()
	d.truth, err = harness.Sweep(d.cfg, harness.SweepOptions{Jobs: r.opt.procs, CacheDir: dir})
	if err != nil {
		return err
	}
	if n := len(d.truth.Sweep.Failures); n > 0 {
		return fmt.Errorf("ground-truth sweep: %d cells failed, first: %s", n, d.truth.Sweep.Failures[0])
	}
	if _, _, err := d.loop(r, &roundRec{}, d.mix[:min(len(d.mix), 4*r.opt.procs)]); err != nil {
		return err
	}
	rec.add("closed_loop", time.Since(t0), 0)
	return nil
}

func (d *serverDriver) round(r *run, rec *roundRec) error {
	samples, wall, err := d.loop(r, rec, d.mix)
	if err != nil {
		return err
	}
	d.samples = append(d.samples, samples...)
	d.perSec = append(d.perSec, float64(len(samples))/wall.Seconds())
	return nil
}

func canonCell(c harness.Cell) ([]byte, error) {
	c.WallSeconds = 0 // the one field that differs between a server run and a direct run
	return json.Marshal(c)
}

// loop starts a server on an empty data directory, runs the closed loop
// over mix and drains the server.
func (d *serverDriver) loop(r *run, rec *roundRec, mix []harness.Key) (samples []jobSample, wall time.Duration, err error) {
	setup := r.tr.start(r.root, "setup", "server")
	dir, err := os.MkdirTemp(r.opt.tmpRoot, "server-closed-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	nw := r.tr.start(setup, "server.new", "server")
	srv, err := server.New(server.Config{DataDir: dir, Workers: r.opt.procs})
	if err != nil {
		return nil, 0, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	nw.end()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: r.opt.procs, MaxIdleConnsPerHost: r.opt.procs}}
	bodies := make([][]byte, len(mix))
	for i, k := range mix {
		bodies[i], err = json.Marshal(server.JobSpec{App: k.App, Variant: k.Variant, Input: k.Input, Config: &d.cfg})
		if err != nil {
			return nil, 0, err
		}
	}
	rec.setup += setup.end()

	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		watch sync.WaitGroup
	)
	if r.tr != nil {
		// Queue depth is only visible by polling /healthz; traced rounds
		// alone pay for it.
		watch.Add(1)
		go func() {
			defer watch.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var st server.Stats
					if getJSON(client, ts.URL+"/healthz", &st) == nil {
						mu.Lock()
						d.depthMax = max(d.depthMax, st.QueueDepth)
						mu.Unlock()
					}
				}
			}
		}()
	}
	loop := r.tr.start(r.root, "server.closed_loop", "server")
	for c := 0; c < r.opt.procs; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				unit := fmt.Sprintf("job-%d", i)
				job := r.tr.startLane(loop, "server.job", unit, lane)
				s, cell, err := oneJob(r.tr, job, client, ts.URL, fmt.Sprintf("tenant-%d", i%tenants), bodies[i], unit, lane)
				s.total = job.end().Seconds()
				var canon []byte
				if err == nil {
					canon, err = canonCell(*cell)
				}
				mu.Lock()
				if want, seen := d.got[mix[i]]; err == nil && seen && !bytes.Equal(want, canon) {
					err = fmt.Errorf("result differs from an earlier job's for the same cell")
				} else if err == nil && !seen {
					d.got[mix[i]] = canon
				}
				r.op(err == nil, "server_closed job %d (%v): %v", i, mix[i], err)
				if err == nil {
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	wall = loop.end()
	close(stop)
	watch.Wait()

	err = getJSON(client, ts.URL+"/healthz", &d.stats)
	ts.Close()
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if derr := srv.Drain(ctx); err == nil {
		err = derr
	}
	if err != nil {
		return nil, 0, err
	}
	// Normalised by the matrix the jobs draw from, not by the cycles in the
	// results delivered: which cell the seed makes hot swings the latter
	// threefold while the loop's wall-clock moves by a tenth.
	rec.add("closed_loop", wall, evalCycles(d.truth))
	return samples, wall, nil
}

// oneJob submits a job, follows its stream to the terminal state and
// fetches the result. Any non-2xx response or a failed job is an error, and
// the job then counts for no latency figure.
func oneJob(tr *tracer, parent open, client *http.Client, base, tenant string, body []byte, unit string, lane int) (jobSample, *harness.Cell, error) {
	var s jobSample
	sp := tr.startLane(parent, "server.submit", unit, lane)
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return s, nil, err
	}
	req.Header.Set("X-Pipette-Tenant", tenant)
	var job server.Job
	err = doJSON(client, req, http.StatusAccepted, &job)
	s.submit = sp.end().Seconds()
	if err != nil {
		return s, nil, fmt.Errorf("submit: %w", err)
	}

	sp = tr.startLane(parent, "server.done_wait", unit, lane)
	state, jerr, err := followStream(client, base+"/v1/jobs/"+job.ID+"/stream")
	s.wait = sp.end().Seconds()
	if err != nil {
		return s, nil, fmt.Errorf("stream: %w", err)
	}
	if state != server.StateDone {
		return s, nil, fmt.Errorf("job ended %s: %s", state, jerr)
	}

	sp = tr.startLane(parent, "server.result", unit, lane)
	var cell harness.Cell
	err = getJSON(client, base+"/v1/jobs/"+job.ID+"/result", &cell)
	s.result = sp.end().Seconds()
	if err != nil {
		return s, nil, fmt.Errorf("result: %w", err)
	}
	return s, &cell, nil
}

// followStream reads a job's ndjson stream to its end and returns the last
// state event.
func followStream(client *http.Client, url string) (state, jobErr string, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", "", err
		}
		if ev.Type == "state" {
			state, jobErr = ev.State, ev.Error
		}
	}
	return state, jobErr, sc.Err()
}

func getJSON(client *http.Client, url string, v any) error {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, http.StatusOK, v)
}

func doJSON(client *http.Client, req *http.Request, want int, v any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

func (d *serverDriver) finish(r *run) error {
	// Every distinct cell a server returned must equal the direct run's.
	for k, got := range d.got {
		want, err := canonCell(d.truth.Cells[k])
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("server cell differs from the direct run\n got: %s\nwant: %s", got, want)
		}
		r.op(err == nil, "server_closed %v: %v", k, err)
	}

	field := func(f func(jobSample) float64) []float64 {
		xs := make([]float64, len(d.samples))
		for i, s := range d.samples {
			xs[i] = f(s) * 1e3
		}
		return xs
	}
	total := field(func(s jobSample) float64 { return s.total })
	p95, pct := tail(total, 95)
	note := fmt.Sprintf("p%.0f of %d jobs", pct, len(total))
	figures := []metricValue{
		{Name: "server.jobs_per_s", Unit: "1/s", Value: median(d.perSec), N: len(d.perSec)},
		{Name: "server.job_latency_p50_ms", Unit: "ms", Value: median(total), N: len(total)},
		{Name: "server.job_latency_p95_ms", Unit: "ms", Value: p95, N: len(total), Note: note},
	}
	r.detail = append(r.detail, figures...)
	if !r.traced {
		return nil
	}
	for _, m := range figures {
		r.layer[m.Name] = m.Value
	}
	submit, wait, result := field(func(s jobSample) float64 { return s.submit }), field(func(s jobSample) float64 { return s.wait }), field(func(s jobSample) float64 { return s.result })
	r.layer["server.submit_rtt_p50_ms"] = median(submit)
	r.layer["server.submit_rtt_p95_ms"], _ = tail(submit, 95)
	r.layer["server.done_wait_p50_ms"] = median(wait)
	r.layer["server.done_wait_p95_ms"], _ = tail(wait, 95)
	r.layer["server.result_rtt_p50_ms"] = median(result)
	st := d.stats
	settled := float64(st.Computed + st.DedupHits + st.CacheHits)
	r.layer["server.computed"] = float64(st.Computed)
	r.layer["server.dedup_hits"] = float64(st.DedupHits)
	r.layer["server.cache_hits"] = float64(st.CacheHits)
	r.layer["server.dedup_ratio"] = ratio(float64(st.DedupHits), settled)
	r.layer["server.cache_hit_ratio"] = ratio(float64(st.CacheHits), settled)
	r.layer["server.rejected"] = float64(st.RateLimited + st.QuotaRejected)
	r.layer["server.queue_depth_max"] = float64(d.depthMax)

	en := time.Now()
	keys, cores := d.cfg.Matrix()
	r.layer["harness.matrix_enum_ms"] = time.Since(en).Seconds() * 1e3
	r.layer["harness.cache_probe_us"], r.layer["harness.runcell_hit_ms"] = microCacheHit(d.cfg, d.truthDir, keys[0], cores[keys[0]])
	return nil
}
