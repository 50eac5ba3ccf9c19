package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// POST /v1/query evaluates a batch of (statistic, estimator, selection)
// triples over ONE shared engine snapshot: the consistent cut and its
// conditional-threshold reduction (the expensive part of the read path)
// are paid once per batch, estimator instances are shared across queries
// naming the same (estimator, statistic) pair, and every query then reads
// the same outcomes — so a batch is both cheaper and more consistent than
// the equivalent sequence of single-query requests.
//
// Request:
//
//	{"queries": [
//	  {"statistic": "sum", "func": "rg", "p": 1, "estimator": "lstar"},
//	  {"statistic": "sum", "func": "rg", "p": 1, "estimator": "ustar",
//	   "keys": ["alpha", "beta"]},
//	  {"statistic": "jaccard"},
//	  {"statistic": "sum", "func": "and",
//	   "estimator": "order:vals=0.25,0.5,1;by=desc"}
//	]}
//
// Response: {"version": N, "snapshot": {...}, "results": [...]} with one
// result per query in request order. A query that fails (unknown estimator, arity
// mismatch, unknown key) carries its own {"error": {...}} and does not
// fail the batch; the request as a whole is 400 only when malformed.

// maxQueryBody caps /v1/query request bodies (1 MiB).
const maxQueryBody = 1 << 20

// maxBatchQueries caps the queries per batch.
const maxBatchQueries = 64

// querySpec is one (statistic, estimator, selection) triple.
type querySpec struct {
	// Statistic is "sum" (default) or "jaccard".
	Statistic string `json:"statistic,omitempty"`
	// Func, P, C name the item function for sum queries (default rg with
	// p=1).
	Func string    `json:"func,omitempty"`
	P    *float64  `json:"p,omitempty"`
	C    []float64 `json:"c,omitempty"`
	// Estimator is a registry name; empty uses the server default.
	Estimator string `json:"estimator,omitempty"`
	// Keys/IDs select a subset of items (string keys are hashed with
	// sampling.StringKey, IDs are raw). Empty selects every item.
	Keys []string `json:"keys,omitempty"`
	IDs  []uint64 `json:"ids,omitempty"`
}

// queryResult is one query's answer.
type queryResult struct {
	Statistic    string       `json:"statistic"`
	Estimator    string       `json:"estimator,omitempty"`
	Estimate     *float64     `json:"estimate,omitempty"`
	Items        int          `json:"items,omitempty"`
	SecondMoment *float64     `json:"second_moment,omitempty"`
	MaxItem      *float64     `json:"max_item_estimate,omitempty"`
	Meta         *estreg.Meta `json:"meta,omitempty"`
	Error        *apiError    `json:"error,omitempty"`
}

type queryRequest struct {
	Queries []querySpec `json:"queries"`
}

type queryResponse struct {
	Version  uint64        `json:"version"`
	Snapshot snapshotInfo  `json:"snapshot"`
	Results  []queryResult `json:"results"`
	// Degraded is present when the snapshot was assembled without every
	// cluster node (partial/quorum read policy): the results are
	// well-defined lower-bound estimates over the reachable subset.
	Degraded *Degraded `json:"degraded,omitempty"`
}

// snapshotInfo summarizes the shared snapshot a batch was answered from.
type snapshotInfo struct {
	Keys           int `json:"keys"`
	SampledEntries int `json:"sampled_entries"`
	TotalEntries   int `json:"total_entries"`
}

// plannedQuery is a parsed, estimator-resolved query awaiting a snapshot.
type plannedQuery struct {
	spec      querySpec
	statistic string
	planKey   string  // the planner cache key: statistic + estimator + func
	f         funcs.F // sum only
	est       estreg.Estimator
	meta      estreg.Meta
	orEst     estreg.Estimator // jaccard: est estimates AND, orEst OR
}

// memoKey canonicalizes the full query — plan plus selection — for the
// per-version result memo. Key strings are quoted so no item name can
// collide with the separators.
func (q *plannedQuery) memoKey() string {
	if len(q.spec.Keys) == 0 && len(q.spec.IDs) == 0 {
		return q.planKey
	}
	var b strings.Builder
	b.WriteString(q.planKey)
	b.WriteString("\x00keys=")
	for _, k := range q.spec.Keys {
		b.WriteString(strconv.Quote(k))
		b.WriteByte(',')
	}
	b.WriteString("\x00ids=")
	for _, id := range q.spec.IDs {
		b.WriteString(strconv.FormatUint(id, 10))
		b.WriteByte(',')
	}
	return b.String()
}

// planner resolves query specs against the server's registry, sharing
// built estimator instances across queries of one batch (order estimators
// carry a per-instance memo, so sharing is a real win). The cache is keyed
// by (statistic, estimator, func); the selection is per-query, so a cache
// hit returns a copy bound to the spec asked about.
type planner struct {
	s     *Server
	cache map[string]*plannedQuery
}

func (s *Server) newPlanner() *planner {
	return &planner{s: s, cache: make(map[string]*plannedQuery)}
}

func (p *planner) plan(spec querySpec) (*plannedQuery, error) {
	estName := spec.Estimator
	if estName == "" {
		estName = p.s.defaultEst
	}
	statistic := spec.Statistic
	if statistic == "" {
		statistic = "sum"
	}
	sp := statisticSpec{Func: spec.Func, P: spec.P, C: spec.C}
	key := statistic + "\x00" + estName + "\x00" + sp.key()
	if q, ok := p.cache[key]; ok {
		bound := *q
		bound.spec = spec
		return &bound, nil
	}
	q := &plannedQuery{spec: spec, statistic: statistic, planKey: key}
	switch statistic {
	case "sum":
		f, err := sp.build()
		if err != nil {
			return nil, err
		}
		if a := f.Arity(); a != 0 && a != p.s.eng.Config().Instances {
			return nil, fmt.Errorf("func %s needs %d instances, engine has %d", f.Name(), a, p.s.eng.Config().Instances)
		}
		q.f = f
		q.est, q.meta, err = p.s.reg.Build(estName, f, p.s.eng.Config().Instances)
		if err != nil {
			return nil, err
		}
	case "jaccard":
		if spec.Func != "" || spec.P != nil || len(spec.C) != 0 {
			return nil, errors.New("statistic jaccard takes no func/p/c (it is the AND/OR sum ratio)")
		}
		var err error
		q.est, q.meta, err = p.s.reg.Build(estName, funcs.AndTuple{}, p.s.eng.Config().Instances)
		if err != nil {
			return nil, err
		}
		q.orEst, _, err = p.s.reg.Build(estName, funcs.OrTuple{}, p.s.eng.Config().Instances)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown statistic %q (have sum, jaccard)", statistic)
	}
	p.cache[key] = q
	return q, nil
}

// failure marks a per-query error on the result.
func (q *plannedQuery) failure(status int, err error) queryResult {
	return queryResult{
		Statistic: q.statistic,
		Estimator: q.meta.Estimator,
		Error:     &apiError{Code: errCode(status), Message: err.Error()},
	}
}

// items resolves the spec's selection against the snapshot view (nil =
// all). The selection is a set: a key named twice, or once as a string and
// once as its raw id, counts once — never double-counting the sum.
func (q *plannedQuery) items(snap engine.SnapshotView) ([]int, error) {
	if len(q.spec.Keys) == 0 && len(q.spec.IDs) == 0 {
		return nil, nil
	}
	items := make([]int, 0, len(q.spec.Keys)+len(q.spec.IDs))
	seen := make(map[int]bool, cap(items))
	add := func(j int) {
		if !seen[j] {
			seen[j] = true
			items = append(items, j)
		}
	}
	for _, name := range q.spec.Keys {
		j, ok := snap.Index(sampling.StringKey(name))
		if !ok {
			return nil, fmt.Errorf("unknown key %q (never ingested)", name)
		}
		add(j)
	}
	for _, id := range q.spec.IDs {
		j, ok := snap.Index(id)
		if !ok {
			return nil, fmt.Errorf("unknown id %d (never ingested)", id)
		}
		add(j)
	}
	return items, nil
}

// eval answers the query from the shared snapshot view. Every sum, whole
// data set or selection, is estreg.SumSparse over the view's exceptional
// outcomes: an estimator under the empty-outcome rule costs what the
// sample holds, and only the others (voptimal, f(0) ≠ 0) synthesize the
// dense outcome list and run estreg.Sum on it — the two are bit-identical
// by construction.
func (q *plannedQuery) eval(view engine.SnapshotView) queryResult {
	items, err := q.items(view)
	if err != nil {
		return q.failure(http.StatusBadRequest, err)
	}
	sum := func(est estreg.Estimator) (estreg.SumResult, error) {
		return estreg.SumSparse(est, len(view.Keys), view.Exceptional, items,
			func() []sampling.TupleOutcome { return view.Snapshot().Sample.Outcomes })
	}
	switch q.statistic {
	case "jaccard":
		and, err := sum(q.est)
		if err != nil {
			return q.failure(http.StatusBadRequest, err)
		}
		or, err := sum(q.orEst)
		if err != nil {
			return q.failure(http.StatusBadRequest, err)
		}
		jac := 0.0
		if or.Estimate != 0 {
			jac = and.Estimate / or.Estimate
		}
		if err := finite(jac); err != nil {
			return q.failure(http.StatusInternalServerError, err)
		}
		return queryResult{
			Statistic: "jaccard",
			Estimator: q.meta.Estimator,
			Estimate:  &jac,
			Items:     and.Items,
		}
	default: // "sum"; plan admits nothing else
		res, err := sum(q.est)
		if err != nil {
			return q.failure(http.StatusBadRequest, err)
		}
		if err := finite(res.Estimate); err != nil {
			return q.failure(http.StatusInternalServerError, err)
		}
		meta := q.meta
		return queryResult{
			Statistic:    "sum",
			Estimator:    meta.Estimator,
			Estimate:     &res.Estimate,
			Items:        res.Items,
			SecondMoment: &res.SecondMoment,
			MaxItem:      &res.MaxItem,
			Meta:         &meta,
		}
	}
}

// handleQuery reads the body once. A body this version already answered
// twice is answered with the stored bytes of that answer, after the one
// acquire every read makes (a coordinator still syncs, so a client still
// reads its writes); anything else is decoded, planned, acquired,
// evaluated through the per-query memo and encoded once, and a clean 200
// is recorded for the next asker (snapshot.go: the second sight stores
// it).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) (int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxQueryBody))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("decoding body: %w", err)
	}
	var (
		view     engine.SnapshotView
		degraded *Degraded
		acquired bool
	)
	if memo := s.memo.Load(); memo != nil {
		if stored := memo.response(body); stored != nil {
			if view, degraded, err = s.acquire(r.Context()); err != nil {
				return acquireStatus(err), err
			}
			if view.Version == memo.version && degraded == nil {
				writeJSONBytes(w, http.StatusOK, stored)
				return http.StatusOK, nil
			}
			acquired = true // a newer version or a degraded round: answer from this view, without a second sync
		}
	}

	planned, results, err := s.planQuery(body)
	if err != nil {
		return http.StatusBadRequest, err
	}
	// One shared snapshot for the whole batch — served from the versioned
	// cache, so a batch against an unchanged engine takes no shard locks
	// and does no reduction work; repeated queries additionally resolve
	// from the per-version result memo without re-running estimators.
	if !acquired {
		if view, degraded, err = s.acquire(r.Context()); err != nil {
			return acquireStatus(err), err
		}
	}
	memo := s.memoFor(view.Version)
	for i, q := range planned {
		if q == nil {
			continue // planning error already recorded
		}
		results[i] = s.evalMemoized(q, view, memo)
	}
	out, err := encodeJSON(queryResponse{
		Version: view.Version,
		Snapshot: snapshotInfo{
			Keys:           len(view.Keys),
			SampledEntries: view.SampledEntries(),
			TotalEntries:   view.TotalEntries(),
		},
		Results:  results,
		Degraded: degraded,
	})
	if err != nil {
		return http.StatusInternalServerError, err
	}
	if degraded == nil {
		memo.record(body, out)
	}
	writeJSONBytes(w, http.StatusOK, out)
	return http.StatusOK, nil
}

// planQuery decodes a /v1/query body and plans every query before the
// engine is touched, so a malformed request costs no sync and well-formed
// queries share built estimators. A query that does not plan gets its
// error result here and a nil plan.
func (s *Server) planQuery(body []byte) ([]*plannedQuery, []queryResult, error) {
	var req queryRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, nil, err
	}
	if len(req.Queries) == 0 {
		return nil, nil, errors.New("empty query batch")
	}
	if len(req.Queries) > maxBatchQueries {
		return nil, nil, fmt.Errorf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries)
	}
	pl := s.newPlanner()
	planned := make([]*plannedQuery, len(req.Queries))
	results := make([]queryResult, len(req.Queries))
	for i, spec := range req.Queries {
		q, err := pl.plan(spec)
		if err != nil {
			statistic := spec.Statistic
			if statistic == "" {
				statistic = "sum"
			}
			results[i] = queryResult{
				Statistic: statistic,
				Error:     &apiError{Code: errCode(http.StatusBadRequest), Message: err.Error()},
			}
			continue
		}
		planned[i] = q
	}
	return planned, results, nil
}
