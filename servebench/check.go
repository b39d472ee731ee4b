package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"soda"
	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/eval"
	"soda/internal/server"
	"soda/internal/sqlparse"
)

// answerQuality sends each Table 2 query to /search on the fresh server,
// executes every served statement on the world's data, and scores the
// best one against the gold standard with internal/eval's scoring. It
// returns the mean best precision and recall over the corpus, and checks
// them against eval.EvaluateAll on a System over the same world.
func answerQuality(addr string, w *soda.World) (precision, recall float64, err error) {
	cl, err := dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.close()
	corpus := eval.Corpus()
	for _, q := range corpus {
		status, body, err := cl.do(searchCall(q.Input, false))
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("answer quality %s: status %d: %v", q.ID, status, err)
		}
		var resp server.SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, 0, fmt.Errorf("answer quality %s: %w", q.ID, err)
		}
		gold, err := eval.GoldSet(w.DB(), q)
		if err != nil {
			return 0, 0, fmt.Errorf("answer quality %s: gold: %w", q.ID, err)
		}
		var best eval.Metrics
		for i, r := range resp.Results {
			var m eval.Metrics
			if sel, err := sqlparse.Parse(r.SQL); err == nil {
				if res, err := memory.Exec(w.DB(), sel); err == nil {
					if got, ok := eval.KeySet(res, q.Keys); ok {
						m = eval.Score(got, gold)
					}
				}
			}
			// eval keeps the first of equally good results.
			if i == 0 || m.Precision+m.Recall > best.Precision+best.Recall {
				best = m
			}
		}
		precision += best.Precision
		recall += best.Recall
	}
	precision /= float64(len(corpus))
	recall /= float64(len(corpus))

	ref := core.NewSystem(memory.New(w.DB()), w.Meta(), w.Index(), core.Options{})
	reports, err := eval.EvaluateAll(ref, corpus)
	if err != nil {
		return 0, 0, fmt.Errorf("eval.EvaluateAll: %w", err)
	}
	var refP, refR float64
	for _, r := range reports {
		refP += r.Best.Precision
		refR += r.Best.Recall
	}
	refP /= float64(len(reports))
	refR /= float64(len(reports))
	if precision != refP || recall != refR {
		return 0, 0, fmt.Errorf("%w: served answers score P=%.4f R=%.4f, eval.EvaluateAll P=%.4f R=%.4f",
			errFailed, precision, recall, refP, refR)
	}
	return precision, recall, nil
}

// checkColdSamples compares the SQL list of each sampled cold-adhoc reply
// with SearchWith on a twin System whose answer cache is disabled.
func checkColdSamples(w *soda.World, samples []coldSample) error {
	twin := soda.NewSystem(w, soda.Options{CacheSize: -1})
	defer twin.Close()
	for _, s := range samples {
		var resp server.SearchResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return fmt.Errorf("cold-adhoc %q: %w", s.query, err)
		}
		ans, err := twin.SearchWith(s.query, soda.SearchOptions{})
		if err != nil {
			return fmt.Errorf("cold-adhoc twin %q: %w", s.query, err)
		}
		var served, want []string
		for _, r := range resp.Results {
			served = append(served, r.SQL)
		}
		for _, r := range ans.Results {
			want = append(want, r.SQL)
		}
		if !slices.Equal(served, want) {
			return fmt.Errorf("%w: cold-adhoc %q: served SQL differs from the cache-disabled twin", errFailed, s.query)
		}
	}
	return nil
}
