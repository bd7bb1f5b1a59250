package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

// The serve workload: an in-process router in front of 2 shards with 1
// worker each, sharing one durable cache directory, driven open-loop at a
// fixed rate from the same process. The mix has three parts: writes (fresh
// quick runs with unique seeds: admission, queue, execute, encode, store),
// reads (resubmissions of completed jobs: cache hits from memory, or from
// disk after the fleet restarted) and exports (fresh runs that record spans,
// whose /trace?format=spans is then fetched). One op is one request
// answered. It is the only workload that reaches internal/serve, the router
// hop and span export; the read/write mix shows whether a cache or encode
// change trades hit latency for miss latency.

const (
	serveRate    = 10.0  // base offered rate, requests per second
	serveLimitMs = 250.0 // per-request latency limit for goodput and the ladder
	serveWarm    = 32    // completed jobs the reads resubmit
	serveRunOps  = 400   // OpsPerCore of the writes' and warm jobs' quick runs
	// serveExportOps is the exports' OpsPerCore: span recording makes a run
	// several times dearer and its export is about 1.3 KB per op, so exports
	// are kept small enough to finish well before a write.
	serveExportOps = 25
	serveShards    = 2
)

// serveLadder is the fixed-rate ladder for max_rate_per_s, as multiples of
// serveRate.
var serveLadder = []float64{1, 2, 4, 8, 12, 16}

// Request kinds of the mix.
type reqKind int

const (
	kindRead reqKind = iota
	kindWrite
	kindExport
)

func (k reqKind) String() string { return [...]string{"read", "write", "export"}[k] }

// serveBlock is one block of the schedule, shuffled per block by the seed:
// 6 reads, 2 exports and 12 writes in 20 requests. Sorted by latency the
// kinds fall in that order, so both the op_p50 and the op_p90 rank land
// inside the writes (at their 17th and 83rd percentiles), never on a
// boundary between kinds, where a small change of host speed would move the
// percentile a lot. Writes are the plainest requests (a simulation and a
// small result), so their latency varies least from run to run.
var serveBlock = func() []reqKind {
	counts := map[reqKind]int{kindRead: 6, kindExport: 2, kindWrite: 12}
	var b []reqKind
	for _, k := range []reqKind{kindRead, kindExport, kindWrite} {
		for i := 0; i < counts[k]; i++ {
			b = append(b, k)
		}
	}
	return b
}()

// runBody is the submission body of a fresh quick run.
func runBody(seed uint64, ops int, spans bool) []byte {
	extra := ""
	if spans {
		extra = `,"RecordSpans":true`
	}
	return []byte(fmt.Sprintf(`{"type":"run","quick":true,"config":{"OpsPerCore":%d,"Seed":%d%s}}`, ops, seed, extra))
}

// request is one scheduled request.
type request struct {
	kind reqKind
	body []byte // fresh runs: the submission
	ops  int    // fresh runs: OpsPerCore
	warm int    // kindRead: index of the warm job it resubmits
}

// schedule generates requests [from, from+n) of the seed's request stream.
// Fresh runs get seeds that no other request of the stream uses.
func schedule(seed uint64, from, n int) []request {
	out := make([]request, 0, n)
	for i := from; i < from+n; i++ {
		block := i / len(serveBlock)
		kinds := append([]reqKind(nil), serveBlock...)
		rng := rand.New(rand.NewSource(int64(runner.Seed(seed, 1_000_000+block))))
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		r := request{kind: kinds[i%len(serveBlock)]}
		switch r.kind {
		case kindRead:
			r.warm = int(runner.Seed(seed, 2_000_000+i) % serveWarm)
		case kindWrite:
			r.ops = serveRunOps
			r.body = runBody(runner.Seed(seed, 3_000_000+i), r.ops, false)
		case kindExport:
			r.ops = serveExportOps
			r.body = runBody(runner.Seed(seed, 3_000_000+i), r.ops, true)
		}
		out = append(out, r)
	}
	return out
}

// fleet is the in-process serving topology.
type fleet struct {
	shards []*serve.Server
	urls   []string // shard base URLs, in shard order
	router string   // router base URL
	http   []*http.Server
	wg     sync.WaitGroup
}

func startFleet(cacheDir string) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < serveShards; i++ {
		s, err := serve.New(serve.Options{Workers: 1, CacheDir: cacheDir, Shard: i, ShardCount: serveShards})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, s)
		url, err := f.listen(s.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	rt, err := serve.NewRouter(f.urls)
	if err != nil {
		f.stop()
		return nil, err
	}
	if f.router, err = f.listen(rt.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.http = append(f.http, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop drains the shards' workers, then closes every listener and
// connection and waits for every serving goroutine to exit. The benchmark
// stops a fleet only once all its requests have been answered, so closing
// the connections cuts nothing short; a graceful http.Server.Shutdown would
// instead wait up to 5 s for each keep-alive connection that a transport
// dialed but never used.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	for _, s := range f.shards {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, hs := range f.http {
		errs = append(errs, hs.Close())
	}
	f.wg.Wait()
	return errors.Join(errs...)
}

// cacheStats sums the shards' cache counters.
func (f *fleet) cacheStats() (hits, misses, rejected uint64) {
	for _, s := range f.shards {
		h, m, r := s.CacheStats()
		hits, misses, rejected = hits+h, misses+m, rejected+r
	}
	return
}

// statusDoc is the part of the API's experiment document the checks read.
type statusDoc struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// client speaks the experiment API.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) submit(base string, body []byte) (int, *statusDoc, error) {
	resp, err := c.hc.Post(base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	var doc statusDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("submit: %d %q", resp.StatusCode, data)
	}
	return resp.StatusCode, &doc, nil
}

// waitDone follows the job's SSE stream until its done event.
func (c *client) waitDone(base, id string) (*statusDoc, error) {
	resp, err := c.hc.Get(base + "/v1/experiments/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var doc statusDoc
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				return nil, fmt.Errorf("events: done payload: %w", err)
			}
			return &doc, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("events: stream ended without a done event")
}

func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// runResult is the part of a run's Result the checks read.
type runResult struct {
	Cycles          uint64
	Ops             uint64
	MemoryImageHash uint64
}

// execute submits a fresh run and waits for it through the SSE stream. It
// returns the job's completed document and when its done event arrived,
// which is before the benchmark checks the result.
func (c *client) execute(base string, body []byte, ops int) (*statusDoc, time.Time, error) {
	code, doc, err := c.submit(base, body)
	if err != nil {
		return nil, time.Time{}, err
	}
	if code != http.StatusAccepted {
		return nil, time.Time{}, fmt.Errorf("fresh run answered %d, want 202 (%s)", code, doc.Error)
	}
	if doc, err = c.waitDone(base, doc.ID); err != nil {
		return nil, time.Time{}, err
	}
	answered := time.Now()
	if doc.State != "done" {
		return nil, answered, fmt.Errorf("job %s ended %s: %s", doc.ID, doc.State, doc.Error)
	}
	var r runResult
	if err := json.Unmarshal(doc.Result, &r); err != nil {
		return nil, answered, fmt.Errorf("job %s: result: %w", doc.ID, err)
	}
	if want := uint64(4 * ops); r.Ops != want || r.Cycles == 0 {
		return nil, answered, fmt.Errorf("job %s: retired %d ops in %d cycles, want %d ops", doc.ID, r.Ops, r.Cycles, want)
	}
	return doc, answered, nil
}

// warmJob is a job completed during set-up: the reads resubmit its body and
// must get back exactly the bytes of its first completion.
type warmJob struct {
	id     string
	body   []byte
	result json.RawMessage
}

// serveEnv is a running fleet with its warm jobs.
type serveEnv struct {
	dir  string
	f    *fleet
	c    *client
	warm []warmJob
}

// setupServe creates a cache directory, completes the warm jobs on a first
// fleet, stops it and starts the fleet under test on the same directory, so
// the warm jobs exist only on disk when measuring starts.
func setupServe(scratch string, seed uint64) (*serveEnv, error) {
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, c: newClient()}
	first, err := startFleet(dir)
	if err != nil {
		e.close()
		return nil, err
	}
	e.warm = make([]warmJob, serveWarm)
	errs := make([]error, serveWarm)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4) // submissions in flight; the fleet has 2 workers
	for i := range e.warm {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			body := runBody(runner.Seed(seed, 4_000_000+i), serveRunOps, false)
			doc, _, err := e.c.execute(first.router, body, serveRunOps)
			if err != nil {
				errs[i] = fmt.Errorf("warm job %d: %w", i, err)
				return
			}
			e.warm[i] = warmJob{id: doc.ID, body: body, result: doc.Result}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(append(errs, first.stop())...); err != nil {
		e.close()
		return nil, err
	}
	if e.f, err = startFleet(dir); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the fleet and removes the cache directory.
func (e *serveEnv) close() error {
	var err error
	if e.f != nil {
		err = e.f.stop()
	}
	e.c.close()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// loadResult is what one open-loop phase observed.
type loadResult struct {
	tally
	latMs    []float64    // due time to answer, verified requests
	kindMs   [3][]float64 // latMs by request kind
	lateMs   []float64    // how late each request was sent
	good     int          // verified within serveLimitMs
	exportMs []float64    // /trace?format=spans fetch times
	executed []string     // IDs of the jobs the phase executed
	elapsed  float64      // first due time to last answer, seconds
}

// load offers reqs open-loop at rate per second: request k is due k/rate
// seconds after the start whatever happened to earlier requests, and its
// latency counts from its due time. tr, when non-nil, receives a span per
// request and per API call.
func (e *serveEnv) load(reqs []request, rate float64, tr *tracer) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var last time.Time
	for k, r := range reqs {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(r request, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			op := tr.begin("serve."+r.kind.String(), 0)
			id, done, exportMs, err := e.do(r, tr, op)
			tr.end(op)
			mu.Lock()
			defer mu.Unlock()
			res.op(err)
			res.lateMs = append(res.lateMs, msBetween(due, sent))
			if done.After(last) {
				last = done
			}
			if err != nil {
				return
			}
			lat := msBetween(due, done)
			res.latMs = append(res.latMs, lat)
			res.kindMs[r.kind] = append(res.kindMs[r.kind], lat)
			if lat <= serveLimitMs {
				res.good++
			}
			if id != "" {
				res.executed = append(res.executed, id)
			}
			if r.kind == kindExport {
				res.exportMs = append(res.exportMs, exportMs)
			}
		}(r, due)
	}
	wg.Wait()
	res.elapsed = last.Sub(start).Seconds()
	return res
}

// do performs and checks one request through the router. It returns the ID
// of the job it executed, if any, when the request was answered (before the
// benchmark's own checks), and for exports the span-export fetch time.
func (e *serveEnv) do(r request, tr *tracer, op int) (string, time.Time, float64, error) {
	base := e.f.router
	if r.kind == kindRead {
		w := e.warm[r.warm]
		s := tr.begin("http.submit", op)
		code, doc, err := e.c.submit(base, w.body)
		answered := time.Now()
		tr.end(s)
		if err != nil {
			return "", answered, 0, err
		}
		if code != http.StatusOK || !doc.Cached {
			return "", answered, 0, fmt.Errorf("read of %s answered %d cached=%v, want a 200 cache hit", w.id, code, doc.Cached)
		}
		if !bytes.Equal(doc.Result, w.result) {
			return "", answered, 0, fmt.Errorf("read of %s: replay differs from the first completion", w.id)
		}
		return "", answered, 0, nil
	}
	s := tr.begin("http.run", op)
	doc, answered, err := e.c.execute(base, r.body, r.ops)
	tr.end(s)
	if err != nil || r.kind != kindExport {
		var id string
		if doc != nil {
			id = doc.ID
		}
		return id, answered, 0, err
	}
	s = tr.begin("http.spans", op)
	t := time.Now()
	spans, err := e.c.get(base + "/v1/experiments/" + doc.ID + "/trace?format=spans")
	answered = time.Now()
	tr.end(s)
	if err != nil {
		return "", answered, 0, err
	}
	if err := checkJSONL(spans); err != nil {
		return "", answered, 0, fmt.Errorf("job %s spans export: %w", doc.ID, err)
	}
	return doc.ID, answered, float64(answered.Sub(t).Nanoseconds()) / 1e6, nil
}

// checkJSONL accepts a non-empty JSON Lines document.
func checkJSONL(data []byte) error {
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		return fmt.Errorf("empty")
	}
	for i, l := range lines {
		if !json.Valid(l) {
			return fmt.Errorf("line %d is not JSON", i+1)
		}
	}
	return nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

func measureServe(o options) *measurement {
	m := &measurement{}
	var env *serveEnv
	for rep := 0; rep < o.setupReps; rep++ {
		start := time.Now()
		e, err := setupServe(o.dir, o.seed)
		m.setup = append(m.setup, time.Since(start).Seconds())
		if err != nil {
			m.ops(1, err)
			return m
		}
		if env != nil {
			for i := range e.warm {
				if !bytes.Equal(e.warm[i].result, env.warm[i].result) {
					m.fail(fmt.Errorf("warm job %d completed differently in two set-ups", i))
				}
			}
			if err := env.close(); err != nil {
				m.fail(err)
			}
		}
		env = e
	}
	defer func() {
		if err := env.close(); err != nil {
			m.fail(err)
		}
	}()

	reqs := schedule(o.seed, 0, int(serveRate*o.seconds))
	rss := startRSS()
	alloc0 := totalAlloc()
	res := env.load(reqs, serveRate, nil)
	m.alloc = totalAlloc() - alloc0
	m.rssMB = rss.stop()
	m.add(&res.tally)
	m.latMs, m.good, m.elapsed = res.latMs, res.good, res.elapsed

	hits, misses, rejected := env.f.cacheStats()
	m.extra = append(m.extra,
		fmt.Sprintf("offered rate %.6g req/s over %.6g s, latency limit %g ms, %d requests", serveRate, o.seconds, serveLimitMs, len(reqs)),
		fmt.Sprintf("load late p90 %.6g ms (n=%d)", nearestRank(sorted(res.lateMs), 90), len(res.lateMs)),
		fmt.Sprintf("cache hits %d, misses %d, rejected %d", hits, misses, rejected))
	for k, ms := range res.kindMs {
		asc := sorted(ms)
		m.extra = append(m.extra, fmt.Sprintf("%-6s p50 %.6g ms, p90 %.6g ms (n=%d)", reqKind(k), nearestRank(asc, 50), nearestRank(asc, 90), len(asc)))
	}
	return m
}
