package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"soda"
	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/backend/sqldriver"
	"soda/internal/core"
	"soda/internal/server"
	"soda/internal/sqlparse"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the calling layer's span (0 for the client).
// A lower span is timed by calling that layer's public function on the
// same input, so its interval is laid out inside its parent, after the
// parent's earlier children, rather than taken from a clock inside the
// program.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
	next  map[int]int64 // parent ID -> start of its next child
}

func (t *tracer) root(req int, name string, start time.Time, d time.Duration) int {
	s := start.Sub(t.epoch).Nanoseconds()
	return t.add(span{Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
}

func (t *tracer) child(parent int, name string, d time.Duration) int {
	p := t.spans[parent-1]
	s, ok := t.next[parent]
	if !ok {
		s = p.Start
	}
	t.next[parent] = s + d.Nanoseconds()
	return t.add(span{Req: p.Req, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans)+1)
	for _, p := range t.spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

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

// Phases of the traced run.
const (
	phaseWorkload = "workload" // the workload's own requests
	phaseProbe    = "probe"    // the /sql and /feedback route probe
	phasePoolCold = "pool-cold"
)

// reqInfo is what the traced run recorded about one request.
type reqInfo struct {
	phase    string
	route    route
	hit      bool
	client   int // span IDs; 0 when absent
	server   int
	store    int
	execs    uint64 // backend executions the served request caused
	walBytes int64
	complex  int
	results  int
	rows     int
	execUs   map[string]float64 // backend.Executor.Exec time by executor
}

// tracedRun holds the served System A and two cache-disabled twins on
// the same world and backend: B (with its own store) serves the in-process
// replays of misses, C the core replays. Each twin sees every request's
// input once, in A's order, so its memo tables are in A's state when a
// miss is replayed on it.
type tracedRun struct {
	a      *served
	b, c   *soda.System
	bSrv   *server.Server
	execs  map[string]backend.Executor // "memory", "sodalite"
	own    string                      // A's executor
	t      tracer
	reqs   []reqInfo
	cl     *client
	recent []call // distinct recent workload searches, for the hit probe

	untraced    []float64 // client µs of untraced workload searches
	searchSpans int       // traced workload searches
}

// The traced replay runs for at least the measured window and then until
// it has traced minTracedSearches workload searches (enough for a p99),
// but no longer than maxReplay; one request in four is left untraced.
const (
	minTracedSearches = 1000
	maxReplay         = 60 * time.Second
)

// noRender fails a SearchRendered call that was expected to hit.
func noRender(*soda.Answer) ([]byte, error) { return nil, errors.New("expected a cache hit") }

// serveInProcess times (*server.Server).ServeHTTP on a fresh request.
func serveInProcess(h http.Handler, c call) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, routePaths[c.route], bytes.NewReader(c.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("in-process %s: status %d: %s", routePaths[c.route], rec.Code, rec.Body.Bytes())
	}
	return d, nil
}

// do sends one request over loopback. A traced request's lower layers
// are replayed and recorded as spans. An untraced one only brings the
// twins to A's state, untimed; its client time is the baseline of the
// tracing overhead.
func (tr *tracedRun) do(phase string, s session, c call, traced bool) error {
	a := tr.a
	cs0, ex0, st0 := a.sys.CacheStats(), a.sys.ExecCount(), a.sys.StoreStats()
	t0 := time.Now()
	status, body, err := tr.cl.do(c)
	d := time.Since(t0)
	if err == nil {
		err = s.check(c, status, body)
	}
	if err != nil {
		return err
	}
	cs1, ex1, st1 := a.sys.CacheStats(), a.sys.ExecCount(), a.sys.StoreStats()
	hit := c.route == routeSearch && cs1.Hits > cs0.Hits
	if phase == phaseWorkload && c.route == routeSearch {
		tr.remember(c)
	}
	if !traced {
		if phase == phaseWorkload && c.route == routeSearch {
			tr.untraced = append(tr.untraced, float64(d)/1e3)
		}
		switch {
		case c.route == routeSearch && !hit:
			opts := soda.SearchOptions{Snippets: c.snippets}
			if _, err := tr.b.SearchWith(c.query, opts); err != nil {
				return err
			}
			_, err := tr.c.SearchWith(c.query, opts)
			return err
		case c.route == routeFeedback:
			if _, err := like(tr.b, c); err != nil {
				return err
			}
			_, err := like(tr.c, c)
			return err
		}
		return nil
	}
	ri := reqInfo{phase: phase, route: c.route, hit: hit}
	ri.client = tr.t.root(len(tr.reqs), "client", t0, d)
	switch c.route {
	case routeSearch:
		ri.execs = ex1 - ex0
		if err := tr.replaySearch(&ri, c); err != nil {
			return err
		}
		if phase == phaseWorkload {
			tr.searchSpans++
		}
	case routeSQL:
		sd, err := serveInProcess(a.handler, c)
		if err != nil {
			return err
		}
		ri.server = tr.t.child(ri.client, "server", sd)
		sel, err := sqlparse.Parse(c.sql)
		if err != nil {
			return fmt.Errorf("parsing served statement: %w", err)
		}
		ri.execUs = make(map[string]float64, len(tr.execs))
		for name, ex := range tr.execs {
			t := time.Now()
			res, err := ex.Exec(context.Background(), sel)
			ed := time.Since(t)
			if err != nil {
				return fmt.Errorf("backend %s: %w", name, err)
			}
			ri.execUs[name] = float64(ed) / 1e3
			if name == tr.own {
				tr.t.child(ri.server, "backend", ed)
				ri.rows = len(res.Rows)
			}
		}
	case routeFeedback:
		ri.walBytes = st1.WALBytes - st0.WALBytes
		// The store span is the same like through soda.Result.Like on B.
		ld, err := like(tr.b, c)
		if err != nil {
			return err
		}
		ri.store = tr.t.child(ri.client, "store", ld)
		if _, err := like(tr.c, c); err != nil {
			return err
		}
	}
	tr.reqs = append(tr.reqs, ri)
	return nil
}

// like applies a /feedback call's like to a twin and times Result.Like.
func like(sys *soda.System, c call) (time.Duration, error) {
	ans, err := sys.Search(c.query)
	if err != nil {
		return 0, err
	}
	for _, r := range ans.Results {
		if r.SQL == c.sql {
			t := time.Now()
			if err := r.Like(); err != nil {
				return 0, fmt.Errorf("twin like: %w", err)
			}
			return time.Since(t), nil
		}
	}
	return 0, fmt.Errorf("%w: a twin lost the liked statement of %q", errFailed, c.query)
}

// replaySearch replays a search below the client: a hit on A itself, a
// miss on the twins.
func (tr *tracedRun) replaySearch(ri *reqInfo, c call) error {
	opts := soda.SearchOptions{Snippets: c.snippets}
	if ri.hit {
		sd, err := serveInProcess(tr.a.handler, c)
		if err != nil {
			return err
		}
		ri.server = tr.t.child(ri.client, "server", sd)
		t := time.Now()
		if _, hit, err := tr.a.sys.SearchRendered(c.query, opts, noRender); err != nil || !hit {
			return fmt.Errorf("core replay of hit %q: %v", c.query, err)
		}
		tr.t.child(ri.server, "core", time.Since(t))
		return nil
	}
	sd, err := serveInProcess(tr.bSrv, c)
	if err != nil {
		return err
	}
	ri.server = tr.t.child(ri.client, "server", sd)
	return tr.coreSpans(ri, ri.server, c.query, opts)
}

// coreSpans times SearchWith on twin C and lays its step timings out as
// children.
func (tr *tracedRun) coreSpans(ri *reqInfo, parent int, query string, opts soda.SearchOptions) error {
	t := time.Now()
	ans, err := tr.c.SearchWith(query, opts)
	cd := time.Since(t)
	if err != nil {
		return fmt.Errorf("twin search %q: %w", query, err)
	}
	var coreID int
	if parent == 0 {
		coreID = tr.t.root(len(tr.reqs), "core", t, cd)
	} else {
		coreID = tr.t.child(parent, "core", cd)
	}
	tm := ans.Timings()
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"lookup", tm.Lookup}, {"rank", tm.Rank}, {"tables", tm.Tables}, {"filters", tm.Filters}, {"sqlgen", tm.SQL}, {"snippet", tm.Snippet}} {
		if st.d > 0 || st.name != "snippet" {
			tr.t.child(coreID, "core."+st.name, st.d)
		}
	}
	ri.complex, ri.results = ans.Complexity, len(ans.Results)
	return nil
}

// remember keeps up to 64 distinct workload searches for the hit probe
// and the allocation counts.
func (tr *tracedRun) remember(c call) {
	for _, r := range tr.recent {
		if r.query == c.query && r.snippets == c.snippets {
			return
		}
	}
	if len(tr.recent) < 64 {
		tr.recent = append(tr.recent, c)
	}
}

// runTraced is the --trace 1 run: the workload's requests from one
// client for measure, every other one traced, then the hit probe, the
// exact counts and the route probe on workloads without /sql and
// /feedback traffic, then the per-layer metrics.
func runTraced(name string, seed int64, measure time.Duration, workdir string, srv *served, rounds []*served, s session, prelude []call) (outcome, error) {
	var out outcome
	loadDSN := fmt.Sprintf("servebench-%d-load", os.Getpid())
	lite, loadS, err := loadSodalite(srv.world, loadDSN)
	if err != nil {
		return out, err
	}
	defer sqldriver.Reset(loadDSN)
	defer lite.Close()
	tr := &tracedRun{a: srv, t: tracer{epoch: time.Now(), next: map[int]int64{}},
		execs: map[string]backend.Executor{"memory": memory.New(srv.world.DB()), "sodalite": lite}, own: "memory"}
	if srv.dsn != "" {
		tr.own = "sodalite"
	}
	bDir, err := os.MkdirTemp(workdir, "twin-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(bDir)
	opts := backendOptions(srv.dsn != "", srv.dsn)
	opts.CacheSize = -1
	if tr.b, err = soda.Open(srv.world, opts, bDir); err != nil {
		return out, fmt.Errorf("opening twin B: %w", err)
	}
	defer tr.b.Close()
	if tr.c, err = soda.Connect(srv.world, opts); err != nil {
		return out, fmt.Errorf("opening twin C: %w", err)
	}
	defer tr.c.Close()
	// The twins replay what A was sent before the replay (cold-adhoc's
	// warm-up queries, explore-session's feedback priming), so their memo
	// tables and ranking start in A's state.
	errs := make(chan error, 2)
	for _, twin := range []*soda.System{tr.b, tr.c} {
		go func() {
			twin.Warm()
			for _, c := range prelude {
				var err error
				if c.route == routeFeedback {
					_, err = like(twin, c)
				} else {
					_, err = twin.SearchWith(c.query, soda.SearchOptions{Snippets: c.snippets})
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		return out, fmt.Errorf("warming the twins: %w", err)
	}
	tr.bSrv = server.New(tr.b)
	if tr.cl, err = dial(srv.addr); err != nil {
		return out, err
	}
	defer tr.cl.close()
	logPhase("twins")

	compact0 := srv.sys.StoreStats().Compactions
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); el >= measure && (tr.searchSpans >= minTracedSearches || el >= maxReplay) {
			break
		}
		out.attempted++
		if err := tr.do(phaseWorkload, s, s.next(), i%4 != 0); err != nil {
			out.failed++
			return out, fmt.Errorf("%w: %v", errFailed, err)
		}
	}
	logPhase("traced replay")
	if name == "hot-repeat" {
		// hot-repeat never misses; its step figures come from running its
		// pool through the pipeline on the twin.
		hs := s.(*hotSession)
		for round := 0; round < 5; round++ {
			for _, c := range hs.pool.calls {
				ri := reqInfo{phase: phasePoolCold, route: routeSearch}
				if err := tr.coreSpans(&ri, 0, c.query, soda.SearchOptions{}); err != nil {
					return out, err
				}
				tr.reqs = append(tr.reqs, ri)
			}
		}
	}
	logPhase("pool cold replay")
	hitUs, err := tr.hitProbe()
	if err != nil {
		return out, err
	}
	counts, err := tr.exactCounts(name)
	if err != nil {
		return out, err
	}
	logPhase("hit probe and exact counts")
	if name != "explore-session" {
		ps := newExploreSession(probeSeed, 0)
		for i := 0; i < probeRequests; i++ {
			out.attempted++
			if err := tr.do(phaseProbe, ps, ps.next(), true); err != nil {
				out.failed++
				return out, fmt.Errorf("%w: %v", errFailed, err)
			}
		}
	}
	logPhase("route probe")
	compactions := srv.sys.StoreStats().Compactions - compact0
	var snaps []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := srv.sys.Snapshot(); err != nil {
			return out, fmt.Errorf("snapshot: %w", err)
		}
		snaps = append(snaps, time.Since(t).Seconds())
	}
	spansPath := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := tr.t.write(spansPath); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s (%d spans, %d requests)\n", spansPath, len(tr.t.spans), len(tr.reqs))

	var worldS, openS, warmS []float64
	for _, r := range rounds {
		worldS, openS, warmS = append(worldS, r.worldS), append(openS, r.openS), append(warmS, r.warmS)
	}
	out.metrics = tr.layerMetrics(name)
	out.metrics = append(out.metrics, metric{"core.hit_us", quantile(hitUs, 0.5), "us", len(hitUs)})
	out.metrics = append(out.metrics, counts...)
	out.metrics = append(out.metrics,
		metric{"store.compactions", float64(compactions), "count", 1},
		metric{"store.snapshot_s", median(snaps), "s", len(snaps)},
		metric{"setup.world_s", median(worldS), "s", len(worldS)},
		metric{"setup.open_s", median(openS), "s", len(openS)},
		metric{"setup.warm_s", median(warmS), "s", len(warmS)},
		metric{"setup.backend_load_s", loadS, "s", 1},
	)
	return out, nil
}

// hitProbe times SearchRendered hits on the workload's recent searches,
// each first served in-process so the cache holds the server's reply.
func (tr *tracedRun) hitProbe() ([]float64, error) {
	for _, c := range tr.recent {
		if _, err := serveInProcess(tr.a.handler, c); err != nil {
			return nil, err
		}
	}
	var us []float64
	for i := 0; i < 4000 && len(tr.recent) > 0; i++ {
		c := tr.recent[i%len(tr.recent)]
		t := time.Now()
		_, hit, err := tr.a.sys.SearchRendered(c.query, soda.SearchOptions{Snippets: c.snippets}, noRender)
		d := time.Since(t)
		if err != nil || !hit {
			return nil, fmt.Errorf("hit probe %q: %v", c.query, err)
		}
		us = append(us, float64(d)/1e3)
	}
	return us, nil
}

// discardWriter is a ResponseWriter that allocates nothing itself; it
// counts replies that were not 200.
type discardWriter struct {
	h   http.Header
	bad int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *discardWriter) WriteHeader(status int) {
	if status != http.StatusOK {
		w.bad++
	}
}

// countAllocs runs f n times with the collector off and returns heap
// allocations and bytes per call.
func countAllocs(n int, f func(i int)) (allocs, bytes float64) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// exactCounts is the pass of exact counts, with GOMAXPROCS pinned to 1
// and pools warmed: server and core allocations on a hit, and per-step
// pipeline allocations on a cache-disabled core System.
func (tr *tracedRun) exactCounts(name string) ([]metric, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if len(tr.recent) == 0 {
		return nil, errors.New("no workload searches to count")
	}
	const n = 2000
	for _, c := range tr.recent {
		if _, err := serveInProcess(tr.a.handler, c); err != nil {
			return nil, err
		}
	}
	reqs := make([]*http.Request, 2*n)
	for i := range reqs {
		c := tr.recent[i%len(tr.recent)]
		reqs[i] = httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(c.body))
	}
	w := &discardWriter{h: http.Header{}}
	countAllocs(n, func(i int) { tr.a.handler.ServeHTTP(w, reqs[n+i]) }) // warm pools
	srvAllocs, srvBytes := countAllocs(n, func(i int) { tr.a.handler.ServeHTTP(w, reqs[i]) })
	if w.bad > 0 {
		return nil, fmt.Errorf("counting server allocations: %d replies were not 200", w.bad)
	}
	var missed bool
	hitAllocs, _ := countAllocs(n, func(i int) {
		c := tr.recent[i%len(tr.recent)]
		if _, hit, _ := tr.a.sys.SearchRendered(c.query, soda.SearchOptions{Snippets: c.snippets}, noRender); !hit {
			missed = true
		}
	})
	if missed {
		return nil, errors.New("counting core hit allocations: a primed query missed")
	}

	// Per-step allocations on a core System with the cache off and one
	// worker, over up to 40 of the workload's searches (the route probe's
	// Table 2 searches supply the snippet step where the workload sends
	// none).
	cs := core.NewSystem(tr.execs[tr.own], tr.a.world.Meta(), tr.a.world.Index(), core.Options{CacheSize: -1, Parallelism: 1})
	cs.Warm()
	type counted struct {
		c        call
		workload bool
	}
	var calls []counted
	for _, c := range tr.recent[:min(40, len(tr.recent))] {
		calls = append(calls, counted{c, true})
	}
	if name != "explore-session" {
		for _, q := range exploreInputs() {
			calls = append(calls, counted{searchCall(q, true), false})
		}
	}
	sums, counts := map[string]float64{}, map[string]int{}
	for _, k := range calls {
		mins := map[string]uint64{}
		for round := 0; round < 3; round++ {
			gc := debug.SetGCPercent(-1) // a collection would drain pools mid-count
			a, err := cs.SearchWith(k.c.query, core.SearchOptions{Snippets: k.c.snippets, CountAllocs: true})
			debug.SetGCPercent(gc)
			if err != nil {
				return nil, fmt.Errorf("alloc pass %q: %w", k.c.query, err)
			}
			for step, v := range a.StepAllocs {
				if have, ok := mins[step]; !ok || v < have {
					mins[step] = v
				}
			}
		}
		for step, v := range mins {
			// The snippet step is counted on snippet searches, the other
			// steps on the workload's own searches.
			if step == "snippet" && k.c.snippets || step != "snippet" && k.workload {
				sums[step] += float64(v)
				counts[step]++
			}
		}
	}
	out := []metric{
		{"server.allocs_per_req", srvAllocs - hitAllocs, "count", n},
		{"server.bytes_per_req", srvBytes, "B", n},
		{"core.hit_allocs", hitAllocs, "count", n},
	}
	for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen", "snippet"} {
		out = append(out, metric{step + ".allocs_per_op", sums[step] / float64(max(counts[step], 1)), "count", counts[step]})
	}
	return out, nil
}

// layerMetrics derives the per-layer figures from the spans and the
// per-request counts.
func (tr *tracedRun) layerMetrics(name string) []metric {
	self := tr.t.selfTimes()
	stepPhase := phaseWorkload
	if name == "hot-repeat" {
		stepPhase = phasePoolCold
	}
	var transport, srvSelf, client, snippet, feedback, complexity, results []float64
	steps := map[string][]float64{}
	execUs := map[string][]float64{}
	var searches, hits, rowsN int
	var execs uint64
	var rows float64
	var wal []float64
	for _, ri := range tr.reqs {
		if ri.phase == phaseWorkload && ri.route == routeSearch {
			searches++
			if ri.hit {
				hits++
			}
			execs += ri.execs
			client = append(client, float64(tr.t.dur(ri.client))/1e3)
			transport = append(transport, float64(self[ri.client])/1e3)
			srvSelf = append(srvSelf, float64(self[ri.server])/1e3)
		}
		if ri.route == routeSearch && !ri.hit && ri.phase == stepPhase {
			complexity = append(complexity, float64(ri.complex))
			results = append(results, float64(ri.results))
		}
		for ex, us := range ri.execUs {
			execUs[ex] = append(execUs[ex], us)
		}
		if ri.route == routeSQL {
			rows += float64(ri.rows)
			rowsN++
		}
		if ri.store != 0 {
			feedback = append(feedback, float64(tr.t.dur(ri.store))/1e3)
			if ri.walBytes > 0 {
				wal = append(wal, float64(ri.walBytes))
			}
		}
	}
	for _, s := range tr.t.spans {
		step, ok := strings.CutPrefix(s.Name, "core.")
		if !ok {
			continue
		}
		us := float64(s.End-s.Start) / 1e3
		if step == "snippet" {
			snippet = append(snippet, us)
		} else if tr.reqs[s.Req].phase == stepPhase {
			steps[step] = append(steps[step], us)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out := []metric{
		{"server.self_us", quantile(srvSelf, 0.5), "us", len(srvSelf)},
		{"transport_us", quantile(transport, 0.5), "us", len(transport)},
		{"cache.hit_ratio", ratio(float64(hits), float64(searches)), "ratio", searches},
	}
	for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen"} {
		xs := steps[step]
		out = append(out,
			metric{step + "_us.p50", quantile(xs, 0.5), "us", len(xs)},
			metric{step + "_us.p99", quantile(xs, 0.99), "us", len(xs)})
	}
	out = append(out,
		metric{"pipeline.complexity", quantile(complexity, 0.5), "count", len(complexity)},
		metric{"pipeline.solutions", quantile(results, 0.5), "count", len(results)},
		metric{"snippet_us", quantile(snippet, 0.5), "us", len(snippet)},
		metric{"backend.exec_us.memory", quantile(execUs["memory"], 0.5), "us", len(execUs["memory"])},
		metric{"backend.exec_us.sodalite", quantile(execUs["sodalite"], 0.5), "us", len(execUs["sodalite"])},
		metric{"backend.execs_per_search", ratio(float64(execs), float64(searches)), "count", searches},
		metric{"backend.rows_per_exec", ratio(rows, float64(rowsN)), "count", rowsN},
		metric{"store.feedback_us", quantile(feedback, 0.5), "us", len(feedback)},
		metric{"store.wal_bytes_per_feedback", mean(wal), "B", len(wal)},
		metric{"trace.overhead_us", quantile(client, 0.5) - quantile(tr.untraced, 0.5), "us", len(client)},
	)
	return out
}
