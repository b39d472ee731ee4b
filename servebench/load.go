package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"soda/internal/eval"
	"soda/internal/server"
	"soda/internal/workload"
)

type route int

const (
	routeSearch route = iota
	routeSQL
	routeFeedback
	numRoutes
)

var routePaths = [numRoutes]string{"/search", "/sql", "/feedback"}

// call is one request a session sends.
type call struct {
	route    route
	body     []byte
	query    string // /search and /feedback input
	snippets bool
	sql      string // /sql statement, /feedback pinned statement
	key      int    // hot-repeat pool index
}

// session is one simulated analyst. next picks the request to send, and
// check validates the reply; a session may steer its next request by
// what it saw (explore-session refines the statement it was shown).
type session interface {
	next() call
	check(c call, status int, body []byte) error
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are encoded
	}
	return b
}

func searchCall(q string, snippets bool) call {
	return call{route: routeSearch, query: q, snippets: snippets,
		body: mustJSON(server.SearchRequest{Query: q, Snippets: snippets})}
}

// normQuery folds case and whitespace, so the distinct-query stream does
// not send two spellings of one cache key.
func normQuery(q string) string { return strings.ToLower(strings.Join(strings.Fields(q), " ")) }

// distinctQueries draws n distinct generated queries.
func distinctQueries(gen *workload.Generator, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		q := gen.Query()
		if k := normQuery(q); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// --- hot-repeat -------------------------------------------------------

// hotPoolSize is the number of distinct queries hot-repeat draws from;
// it fits the 512-entry answer cache with room to spare.
const hotPoolSize = 200

type hotPool struct {
	calls []call
	want  [][]byte // response recorded when the pool was primed
}

func newHotPool(gen *workload.Generator) *hotPool {
	p := &hotPool{}
	for i, q := range distinctQueries(gen, hotPoolSize) {
		c := searchCall(q, false)
		c.key = i
		p.calls = append(p.calls, c)
	}
	p.want = make([][]byte, len(p.calls))
	return p
}

// Draw k of the pool with probability ∝ (zipfV+k)^-zipfS: the head query
// takes ~4% of the draws, ~28 times the tail's share. A steeper head would
// let a few seed-chosen queries, and their reply sizes, set the figures.
const zipfS, zipfV = 1.1, 10

type hotSession struct {
	pool *hotPool
	zipf *rand.Zipf
}

func newHotSession(p *hotPool, seed int64, client int) *hotSession {
	r := rand.New(rand.NewSource(seed*1000 + int64(client)))
	return &hotSession{pool: p, zipf: rand.NewZipf(r, zipfS, zipfV, uint64(len(p.calls)-1))}
}

func (s *hotSession) next() call { return s.pool.calls[s.zipf.Uint64()] }

func (s *hotSession) check(c call, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("hot-repeat %q: status %d", c.query, status)
	}
	if !bytes.Equal(body, s.pool.want[c.key]) {
		return fmt.Errorf("hot-repeat %q: reply differs from the one recorded at priming", c.query)
	}
	return nil
}

// --- cold-adhoc -------------------------------------------------------

// adhocStream hands out a seeded stream of distinct generated queries,
// shared by all clients so no query is sent twice.
type adhocStream struct {
	mu   sync.Mutex
	gen  *workload.Generator
	seen map[string]bool
}

func newAdhocStream(gen *workload.Generator) *adhocStream {
	return &adhocStream{gen: gen, seen: make(map[string]bool)}
}

func (st *adhocStream) next() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		q := st.gen.Query()
		if k := normQuery(q); !st.seen[k] {
			st.seen[k] = true
			return q
		}
	}
}

// coldSampleEvery keeps one reply in this many, up to coldSamples, for
// the twin comparison.
const coldSampleEvery, coldSamples = 50, 50

type coldSample struct {
	query string
	body  []byte
}

type coldSession struct {
	stream  *adhocStream
	n       int
	samples []coldSample
}

func (s *coldSession) next() call { return searchCall(s.stream.next(), false) }

func (s *coldSession) check(c call, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("cold-adhoc %q: status %d: %s", c.query, status, body)
	}
	if s.n++; s.n%coldSampleEvery == 0 && len(s.samples) < coldSamples {
		s.samples = append(s.samples, coldSample{c.query, append([]byte(nil), body...)})
	}
	return nil
}

// --- explore-session --------------------------------------------------

// exploreInputs are the inputs of the 13 Table 2 queries (two share an
// input, which therefore gets twice the traffic).
func exploreInputs() []string {
	var out []string
	for _, q := range eval.Corpus() {
		out = append(out, q.Input)
	}
	return out
}

// exploreSession is one analyst over the Table 2 inputs, planned in
// cycles of two rounds. Each round searches every input once, with
// snippets, in a fresh seeded order. Over a cycle each input's top
// statement is sent to /sql once, after a seeded one of its two searches
// (the §5.3.2 refinement workflow), and a seeded half of the searches are
// followed by a like of the top statement. That is 26 searches, 13 /sql
// and 7 likes per cycle: 57%, 28% and 15%. Every input gets the same
// share of each route whatever the seed: the /sql and /search latencies
// are mixtures of per-query costs, and with independent draws the
// shares, and the medians with them, moved by up to 30% from seed to seed.
type exploreSession struct {
	rng       *rand.Rand
	inputs    []string
	plan      []exploreStep // rest of the current cycle
	lastQuery string
	lastTop   string
}

type exploreStep struct {
	route route
	input int // for searches
}

func newExploreSession(seed int64, client int) *exploreSession {
	return &exploreSession{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), inputs: exploreInputs()}
}

func (s *exploreSession) planCycle() {
	n := len(s.inputs)
	sqlRound := make([]int, n)
	for i := range sqlRound {
		sqlRound[i] = s.rng.Intn(2)
	}
	liked := make([]bool, 2*n)
	for _, v := range s.rng.Perm(2 * n)[:(n+1)/2] {
		liked[v] = true
	}
	for round := 0; round < 2; round++ {
		for _, i := range s.rng.Perm(n) {
			s.plan = append(s.plan, exploreStep{routeSearch, i})
			if sqlRound[i] == round {
				s.plan = append(s.plan, exploreStep{route: routeSQL})
			}
			if liked[round*n+i] {
				s.plan = append(s.plan, exploreStep{route: routeFeedback})
			}
		}
	}
}

func (s *exploreSession) next() call {
	for {
		if len(s.plan) == 0 {
			s.planCycle()
		}
		st := s.plan[0]
		s.plan = s.plan[1:]
		switch {
		case st.route == routeSearch:
			return searchCall(s.inputs[st.input], true)
		case s.lastTop == "":
			// The search found nothing to refine or like.
		case st.route == routeSQL:
			return call{route: routeSQL, sql: s.lastTop, body: mustJSON(server.SQLRequest{SQL: s.lastTop})}
		default:
			return call{route: routeFeedback, query: s.lastQuery, sql: s.lastTop,
				body: mustJSON(server.FeedbackRequest{Query: s.lastQuery, SQL: s.lastTop, Like: true})}
		}
	}
}

func (s *exploreSession) check(c call, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("explore-session %s: status %d: %s", routePaths[c.route], status, body)
	}
	switch c.route {
	case routeSearch:
		var resp server.SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("explore-session /search %q: %w", c.query, err)
		}
		s.lastQuery, s.lastTop = c.query, ""
		if len(resp.Results) > 0 {
			s.lastTop = resp.Results[0].SQL
		}
	case routeFeedback:
		var resp server.FeedbackResponse
		if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
			return fmt.Errorf("explore-session /feedback %q: not acknowledged: %s", c.query, body)
		}
	}
	return nil
}

// loopResult is what a closed loop observed.
type loopResult struct {
	attempted, failed int
	lat               [numRoutes][]time.Duration  // successful requests in the measured window
	stmt              map[stmtKey][]time.Duration // lat of /sql and /feedback, by request
	measured          int                         // requests completed in the measured window
	elapsed           time.Duration               // measured window, to the last completion
	err               error                       // first failure
}

// stmtKey tells apart the /sql and /feedback requests a session repeats:
// the statement, and for /feedback the query it was liked for.
type stmtKey struct {
	route      route
	query, sql string
}

// sampleBytes is the heap the latency samples hold.
func (r *loopResult) sampleBytes() uint64 {
	n := 0
	for _, l := range r.lat {
		n += cap(l)
	}
	return uint64(n) * 8
}

func (r *loopResult) merge(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.measured += o.measured
	if o.elapsed > r.elapsed {
		r.elapsed = o.elapsed
	}
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	for k, ds := range o.stmt {
		if r.stmt == nil {
			r.stmt = make(map[stmtKey][]time.Duration)
		}
		r.stmt[k] = append(r.stmt[k], ds...)
	}
	if r.err == nil {
		r.err = o.err
	}
}

// closedLoop runs one goroutine per session, each sending its next
// request only after reading the previous reply, with no think time.
// With perClient > 0 every session sends exactly that many requests and
// all are measured; otherwise sessions run for warmup+measure and only
// requests started after the warm-up are measured.
func closedLoop(addr string, sessions []session, warmup, measure time.Duration, perClient int) loopResult {
	start := time.Now()
	from, end := start.Add(warmup), start.Add(warmup+measure)
	results := make([]loopResult, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(res *loopResult, s session) {
			defer wg.Done()
			cl, err := dial(addr)
			if err != nil {
				res.attempted, res.failed, res.err = 1, 1, err
				return
			}
			defer cl.close()
			for n := 0; ; n++ {
				t0 := time.Now()
				if perClient > 0 && n >= perClient || perClient <= 0 && !t0.Before(end) {
					return
				}
				c := s.next()
				status, body, err := cl.do(c)
				d := time.Since(t0)
				if err == nil {
					err = s.check(c, status, body)
				}
				res.attempted++
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = err
					}
					continue
				}
				if perClient > 0 || !t0.Before(from) {
					res.lat[c.route] = append(res.lat[c.route], d)
					if c.route != routeSearch {
						if res.stmt == nil {
							res.stmt = make(map[stmtKey][]time.Duration)
						}
						k := stmtKey{c.route, c.query, c.sql}
						res.stmt[k] = append(res.stmt[k], d)
					}
					res.measured++
					if e := t0.Add(d).Sub(from); e > res.elapsed {
						res.elapsed = e
					}
				}
			}
		}(&results[i], s)
	}
	wg.Wait()
	var out loopResult
	for i := range results {
		out.merge(&results[i])
	}
	return out
}

// errFailed marks a run whose checks failed.
var errFailed = errors.New("correctness check failed")
