// Command servebench is the repository's served-path benchmark. It boots
// SODA in-process behind a real loopback HTTP listener (internal/server
// over soda.Open), drives one workload with a closed loop of two
// keep-alive clients, checks every answer, and prints the end-to-end
// metrics. With --trace 1 it instead replays the workload with one client
// and times each layer's public functions on the same inputs, printing
// the per-layer metrics. See NOTES.md for the workloads, every metric and
// the known defect the workloads steer around.
//
//	bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"soda/internal/eval"
	"soda/internal/server"
	"soda/internal/workload"
)

// clients is the closed loop's width: one analyst per vCPU of the
// reference host, each on its own keep-alive connection.
const clients = 2

// warmup is run before the measured window of every timed run.
const warmup = time.Second

// probeRequests sizes the /sql and /feedback probe run after the measured
// window on the workloads that send neither (see NOTES.md). It is one
// analyst with the fixed probeSeed, so it sends the same requests in the
// same order on every run: its latencies are a mixture of per-statement
// costs, and a mix that moved with the seed, or with how two analysts'
// likes interleave, moved their medians.
const probeRequests, probeSeed = 1500, 1

var workloadNames = []string{"hot-repeat", "cold-adhoc", "explore-session"}

func main() {
	name := flag.String("workload", "", "hot-repeat, cold-adhoc or explore-session")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data directories and the span dump")
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "servebench: want --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// outcome is the result line's content, plus figures that are printed
// in the report above it but are not in the result line.
type outcome struct {
	attempted, failed int
	metrics           []metric
	reportOnly        []metric
}

func run(name string, seed int64, measure time.Duration, traced bool, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	fmt.Println("host:", fingerprint(seed))
	srv, rounds, err := bootMedian(workdir, name == "explore-session")
	if err != nil {
		return err
	}
	defer srv.close()
	var setup []float64
	for _, r := range rounds {
		setup = append(setup, r.setupS)
	}

	logPhase("set-up")
	precision, recall, err := answerQuality(srv.addr, srv.world)
	if err != nil {
		return err
	}
	gen := workload.New(srv.world.Meta(), srv.world.Index(), seed)
	var sessions []session
	var cold []*coldSession
	var prelude []call // requests sent before the measured phase that change state
	switch name {
	case "hot-repeat":
		pool := newHotPool(gen)
		if err := primeHotPool(srv.addr, pool); err != nil {
			return err
		}
		for i := 0; i < clients; i++ {
			sessions = append(sessions, newHotSession(pool, seed, i))
		}
	case "cold-adhoc":
		stream := newAdhocStream(gen)
		var warm []string
		for range coldWarmQueries {
			warm = append(warm, stream.next())
		}
		if err := sendAll(srv.addr, warm); err != nil {
			return err
		}
		for _, q := range warm {
			prelude = append(prelude, searchCall(q, false))
		}
		for i := 0; i < clients; i++ {
			cs := &coldSession{stream: stream}
			cold = append(cold, cs)
			sessions = append(sessions, cs)
		}
	case "explore-session":
		if prelude, err = saturateFeedback(srv.addr); err != nil {
			return err
		}
		for i := 0; i < clients; i++ {
			sessions = append(sessions, newExploreSession(seed, i))
		}
	}

	logPhase("answer quality, priming and warm-up")
	var out outcome
	if traced {
		out, err = runTraced(name, seed, measure, workdir, srv, rounds, sessions[0], prelude)
	} else {
		out = runTimed(name, measure, srv, sessions, setup, precision, recall)
	}
	if err == nil && len(cold) > 0 {
		var samples []coldSample
		for _, cs := range cold {
			samples = append(samples, cs.samples...)
		}
		err = checkColdSamples(srv.world, samples)
	}
	logPhase("measurement and checks")
	correct := err == nil && out.failed == 0
	if err != nil && !errors.Is(err, errFailed) {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	printResult(correct, out)
	if !correct {
		return errFailed
	}
	return nil
}

var phaseStart = time.Now()

// logPhase reports on stderr how long the phase that just ended took.
func logPhase(name string) {
	fmt.Fprintf(os.Stderr, "servebench: %s took %.1fs\n", name, time.Since(phaseStart).Seconds())
	phaseStart = time.Now()
}

// primeHotPool sends every pool query once and records the reply every
// later hit must reproduce byte for byte.
func primeHotPool(addr string, pool *hotPool) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	for i, c := range pool.calls {
		status, body, err := cl.do(c)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("priming %q: status %d: %v", c.query, status, err)
		}
		pool.want[i] = append([]byte(nil), body...)
	}
	return nil
}

// coldWarmQueries is how many distinct queries cold-adhoc sends before it
// measures. The pipeline's memo tables fill over the first few thousand
// distinct generated queries (mean miss cost falls from ~13ms over the
// first thousand to ~0.9ms from the five thousandth on, on the reference
// host), so a window that started cold would time that transient, and
// its length would depend on the host's speed.
const coldWarmQueries = 5000

// saturateFeedback likes the top statement of every Table 2 query, in
// corpus order, round after round, until the likes have saturated (they
// are clamped at four per entry point) and a whole round changes no
// query's top statement; it returns the likes it sent. Likes on one
// query can change another's top statement, so the ranking that analysts
// liking concurrently end up at depends on the order their likes
// interleave, and it moved /sql's median by 30% from run to run. From
// this fixed point on, a like changes no ranking but still bumps the
// epoch, empties the answer cache and writes the WAL.
func saturateFeedback(addr string) ([]call, error) {
	cl, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	inputs := exploreInputs()
	tops := make(map[string]string, len(inputs))
	var likes []call
	for round := 0; round < 20; round++ {
		changed := false
		for _, q := range inputs {
			status, body, err := cl.do(searchCall(q, false))
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("feedback priming %q: status %d: %v", q, status, err)
			}
			var resp server.SearchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, fmt.Errorf("feedback priming %q: %w", q, err)
			}
			if len(resp.Results) == 0 {
				continue
			}
			top := resp.Results[0].SQL
			changed = changed || tops[q] != top
			tops[q] = top
			c := call{route: routeFeedback, query: q, sql: top,
				body: mustJSON(server.FeedbackRequest{Query: q, SQL: top, Like: true})}
			if status, body, err := cl.do(c); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("feedback priming %q: status %d: %v: %s", q, status, err, body)
			}
			likes = append(likes, c)
		}
		if !changed && round >= 4 {
			return likes, nil
		}
	}
	return nil, errors.New("feedback priming: the top statements did not settle")
}

// sendAll sends each query once to /search, split over the clients.
func sendAll(addr string, queries []string) error {
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cl, err := dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.close()
			for j := i; j < len(queries); j += clients {
				status, _, err := cl.do(searchCall(queries[j], false))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up %q: status %d", queries[j], status)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	var first error
	for i := 0; i < clients; i++ {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

// runTimed measures the end-to-end metrics: a closed loop of clients
// sessions for warmup+measure, the live heap right after, then (on
// workloads without /sql and /feedback traffic) the route probe.
func runTimed(name string, measure time.Duration, srv *served, sessions []session, setup []float64, precision, recall float64) outcome {
	res := closedLoop(srv.addr, sessions, warmup, measure, 0)
	// Live heap less the benchmark's own latency samples, whose size
	// follows throughput. The second collection frees what the first only
	// moved to the sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc-res.sampleBytes()) / (1 << 20)

	routes := res
	attempted, failed := res.attempted, res.failed
	if name != "explore-session" {
		probe := closedLoop(srv.addr, []session{newExploreSession(probeSeed, 0)}, 0, 0, probeRequests)
		routes = probe
		attempted += probe.attempted
		failed += probe.failed
		if probe.err != nil && res.err == nil {
			res.err = probe.err
		}
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", res.err)
	}
	search := micros(res.lat[routeSearch])
	success := 1.0
	if attempted > 0 {
		success = 1 - float64(failed)/float64(attempted)
	}
	return outcome{attempted: attempted, failed: failed, metrics: []metric{
		{"setup_s", median(setup), "s", len(setup)},
		{"throughput_rps", float64(res.measured) / res.elapsed.Seconds(), "1/s", res.measured},
		{"search_p50_us", quantile(search, 0.50), "us", len(search)},
		{"search_p95_us", quantile(search, 0.95), "us", len(search)},
		{"sql_p50_us", stmtP50(routes.stmt, routeSQL), "us", len(routes.lat[routeSQL])},
		{"feedback_p50_us", stmtP50(routes.stmt, routeFeedback), "us", len(routes.lat[routeFeedback])},
		{"success_rate", success, "ratio", attempted},
		{"heap_live_mb", heapMB, "MB", 1},
		{"answer_precision", precision, "ratio", len(eval.Corpus())},
		{"answer_recall", recall, "ratio", len(eval.Corpus())},
	}, reportOnly: []metric{
		// Not a bounded metric: see "Steadiness and bounds" in NOTES.md.
		{"search_p99_us", quantile(search, 0.99), "us", len(search)},
	}}
}

// printResult prints a table with sample counts, then the result line.
func printResult(correct bool, out outcome) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(out.metrics))
	for _, m := range out.metrics {
		fmt.Printf("%-32s %14.4f %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		ms[m.Name] = val{m.Value, m.Unit}
	}
	for _, m := range out.reportOnly {
		fmt.Printf("%-32s %14.4f %-6s samples=%d (report only)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, out.attempted, out.failed, ms})
	fmt.Println(string(line))
}
