// Package server exposes the mapper as a JSON-over-HTTP service, so
// schedulers, notebooks and CI pipelines can request mappings without
// linking Go code. All payloads reuse the config-file schemas.
//
// Endpoints:
//
//	GET  /v1/suites       -> {"suites": {"resnet50": 22, ...}}
//	GET  /v1/experiments  -> {"experiments": [...], "extensions": [...]}
//	GET  /v1/metrics      -> pipeline counters as JSON, or Prometheus text
//	                         exposition when the request Accepts text/plain
//	POST /v1/evaluate     -> evaluate one explicit mapping
//	POST /v1/search       -> random-search a mapspace (synchronous)
//	POST /v1/construct    -> one-shot heuristic mapping
//	POST /v1/network      -> whole-network search over a named network graph:
//	                         per-layer baseline plus fusion-aware segments
//	POST /v1/jobs         -> submit an asynchronous search job -> {"id": ...}
//	GET  /v1/jobs         -> list jobs (survives restarts with a state dir)
//	GET  /v1/jobs/{id}    -> one job's status and, when done, its result
//	GET  /v1/jobs/{id}/checkpoint -> the job's latest search snapshot (404
//	                         until the first checkpoint is written)
//	GET  /v1/healthz      -> liveness: 200 "ok", or 503 "draining" during
//	                         graceful shutdown
//
// Job requests may additionally carry "shard" and "resume" fields, which
// mark the job as one shard of a coordinated distributed search (see
// internal/dist and docs/DISTRIBUTED.md); CoordinatorHandler serves the
// matching coordinator-side status API for cmd/rubycoord.
//
// Searches run through the evaluation engine: they honor the request
// context (a client disconnect aborts the search promptly) plus an optional
// per-request "timeout_ms", and report aggregate counters at /v1/metrics.
//
// Jobs are the fault-tolerant path: build the handler with NewService and a
// state directory, and every job's record plus its periodic search
// checkpoint is persisted there. After a restart, finished jobs remain
// listable and unfinished ones resume from their checkpoints (the resumable
// searchers replay the exact draw sequence, so the completed result is
// identical to an uninterrupted run). Service.Shutdown drains workers and
// parks running jobs as "interrupted".
//
// Every failure response shares one envelope, {"error": {"code": "...",
// "message": "..."}}, where the code fixes the HTTP status (see codeStatus);
// docs/API.md documents the code table.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ruby/internal/config"
	"ruby/internal/engine"
	"ruby/internal/exp"
	"ruby/internal/heuristic"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/workloads"
)

// service carries the handlers' shared state: the engine configuration
// template, the process-wide pipeline instruments and their exposition
// registry, and the async job manager.
type service struct {
	ins  *engine.Instruments
	reg  *obs.Registry
	jobs *jobManager
	// defaultSearch is the algorithm used when a request leaves its
	// "search" field empty ("" = random sampling).
	defaultSearch string
}

// engineFor builds the per-request evaluation pipeline. Engines are
// per-request: each request carries its own workload and architecture, so
// there is nothing to share across requests but the metrics.
func (s *service) engineFor(ev *nest.Evaluator) *engine.Engine {
	return engine.Config{Metrics: s.ins}.New(ev)
}

// mux wires the endpoint handlers.
func (s *service) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/suites", handleSuites)
	mux.HandleFunc("GET /v1/experiments", handleExperiments)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/construct", handleConstruct)
	mux.HandleFunc("POST /v1/network", s.handleNetwork)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleJobCheckpoint)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the liveness probe the distributed coordinator (and any
// load balancer) polls: 200 while the server accepts work, 503 once a
// graceful shutdown has begun and new jobs would be rejected.
func (s *service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.jobs.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// New returns the service's HTTP handler (in-memory jobs, no persistence).
func New() http.Handler {
	h, _ := NewWithMetrics()
	return h
}

// NewWithMetrics returns the handler plus the pipeline counters it reports
// at /v1/metrics, so callers (cmd/rubyserve) can additionally export them
// via expvar or logs. Jobs are kept in memory; use NewService for
// persistence and graceful shutdown.
func NewWithMetrics() (http.Handler, *engine.Counters) {
	srv, err := NewService(Options{})
	if err != nil {
		// Unreachable: only a state directory can fail to open.
		panic(err)
	}
	return srv, srv.Counters()
}

// Error codes of the uniform failure envelope. Each code pins its HTTP
// status (codeStatus); clients are expected to switch on the code, not the
// status line.
const (
	// CodeInvalidRequest (400): the request body, mapping or parameters
	// cannot be parsed or are missing required fields.
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound (404): the referenced resource (job ID) does not exist.
	CodeNotFound = "not_found"
	// CodeNoValidMapping (422): the problem was well-formed, but no valid
	// mapping exists or was found within the search budget.
	CodeNoValidMapping = "no_valid_mapping"
	// CodeSearchTimeout (504): the search's time bound expired before any
	// valid mapping was found.
	CodeSearchTimeout = "search_timeout"
	// CodeUnavailable (503): the service cannot accept work (shutting down).
	CodeUnavailable = "unavailable"
	// CodeInternal (500): unexpected server-side failure.
	CodeInternal = "internal"
)

// codeStatus maps an error code to its HTTP status.
func codeStatus(code string) int {
	switch code {
	case CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeNoValidMapping:
		return http.StatusUnprocessableEntity
	case CodeSearchTimeout:
		return http.StatusGatewayTimeout
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// apiError is the body of the "error" envelope field.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// problem is the uniform failure payload of every /v1 endpoint.
type problem struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code string, err error) {
	writeJSON(w, codeStatus(code), problem{Error: apiError{Code: code, Message: err.Error()}})
}

func handleSuites(w http.ResponseWriter, _ *http.Request) {
	out := map[string]int{}
	for name, layers := range workloads.Suites() {
		out[name] = len(layers)
	}
	writeJSON(w, http.StatusOK, map[string]any{"suites": out})
}

func handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": exp.Names(),
		"extensions":  exp.ExtensionNames(),
	})
}

// handleMetrics reports the pipeline metrics. The default is the legacy JSON
// counter snapshot; a request whose Accept header names text/plain gets the
// Prometheus text exposition (counters, latency/EDP histograms, job gauges)
// instead, so the same endpoint serves both scripts and a Prometheus scraper.
func (s *service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", obs.TextContentType)
		_ = s.reg.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.ins.Counters.Snapshot())
}

// problemSpec is the common workload+architecture request fragment.
type problemSpec struct {
	Workload    json.RawMessage `json:"workload"`
	Arch        json.RawMessage `json:"arch"`
	Constraints json.RawMessage `json:"constraints,omitempty"`
	Mapspace    string          `json:"mapspace,omitempty"` // default ruby-s
}

// resolve parses the fragment into model objects.
func (p *problemSpec) resolve() (*nest.Evaluator, *mapspace.Space, error) {
	if len(p.Workload) == 0 || len(p.Arch) == 0 {
		return nil, nil, fmt.Errorf("workload and arch are required")
	}
	w, err := config.ParseWorkload(p.Workload)
	if err != nil {
		return nil, nil, err
	}
	a, err := config.ParseArch(p.Arch)
	if err != nil {
		return nil, nil, err
	}
	ev, err := nest.NewEvaluator(w, a)
	if err != nil {
		return nil, nil, err
	}
	cons := mapspace.Constraints{}
	if len(p.Constraints) > 0 {
		cons, err = config.ParseConstraints(p.Constraints)
		if err != nil {
			return nil, nil, err
		}
	}
	kind, err := parseKind(p.Mapspace)
	if err != nil {
		return nil, nil, err
	}
	return ev, mapspace.New(w, a, kind, cons), nil
}

func parseKind(s string) (mapspace.Kind, error) {
	switch strings.ToLower(s) {
	case "", "ruby-s", "rubys":
		return mapspace.RubyS, nil
	case "pfm", "perfect":
		return mapspace.PFM, nil
	case "ruby":
		return mapspace.Ruby, nil
	case "ruby-t", "rubyt":
		return mapspace.RubyT, nil
	default:
		return 0, fmt.Errorf("unknown mapspace %q", s)
	}
}

func parseObjective(s string) (search.Objective, error) {
	switch strings.ToLower(s) {
	case "", "edp":
		return search.ObjectiveEDP, nil
	case "energy":
		return search.ObjectiveEnergy, nil
	case "delay", "latency":
		return search.ObjectiveDelay, nil
	default:
		return 0, fmt.Errorf("unknown objective %q", s)
	}
}

// mappingResult is the common response fragment.
type mappingResult struct {
	Mapping  *mapping.Mapping `json:"mapping"`
	Cost     nest.Cost        `json:"cost"`
	LoopNest string           `json:"loop_nest"`
}

type evaluateRequest struct {
	problemSpec
	Mapping json.RawMessage `json:"mapping"`
}

func (s *service) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	ev, sp, err := req.resolve()
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	if len(req.Mapping) == 0 {
		writeErr(w, CodeInvalidRequest, fmt.Errorf("mapping is required"))
		return
	}
	m, err := mapping.Decode(req.Mapping, ev.Work, sp.Slots())
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	c := s.engineFor(ev).Evaluate(m)
	writeJSON(w, http.StatusOK, mappingResult{Mapping: m, Cost: c, LoopNest: m.Render(ev.Work, ev.Arch)})
}

// shardSpec assigns a distributed-coordination shard to an async job (the
// "shard" field; docs/DISTRIBUTED.md). chain_lo == chain_hi means no
// enumeration restriction — the shard's identity is then the seed (RNG
// substream); otherwise the exhaustive scan is confined to leading-dimension
// chain indices [chain_lo, chain_hi).
type shardSpec struct {
	Index   int `json:"index"`
	ChainLo int `json:"chain_lo"`
	ChainHi int `json:"chain_hi"`
}

type searchRequest struct {
	problemSpec
	// Search selects the algorithm (search.Algorithms; "" = random).
	Search         string `json:"search,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Threads        int    `json:"threads,omitempty"`
	MaxEvaluations int64  `json:"max_evaluations,omitempty"`
	NoImprove      int64  `json:"no_improve,omitempty"`
	Objective      string `json:"objective,omitempty"`
	// TimeoutMS bounds the search's wall time; on expiry the best mapping
	// found so far is returned (or 504 when none was found yet).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Shard marks the request as one shard of a coordinated distributed
	// search. Jobs only: the synchronous /v1/search rejects it. A shard
	// job is exact — no default evaluation cap is applied, and a shard
	// whose range holds no valid mapping completes "done" with a null
	// mapping instead of failing.
	Shard *shardSpec `json:"shard,omitempty"`
	// Resume seeds the job from a caller-held search snapshot (the
	// checkpoint SearchState payload), used by the coordinator when
	// re-queuing a shard whose original worker died. A local checkpoint
	// file in the state directory takes precedence. Jobs only.
	Resume json.RawMessage `json:"resume,omitempty"`
}

type searchResponse struct {
	mappingResult
	Evaluated int64 `json:"evaluated"`
	Valid     int64 `json:"valid"`
	TimedOut  bool  `json:"timed_out,omitempty"`
}

func (s *service) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	if req.Shard != nil || len(req.Resume) > 0 {
		writeErr(w, CodeInvalidRequest, fmt.Errorf("shard and resume are job-only fields (POST /v1/jobs)"))
		return
	}
	ev, sp, err := req.resolve()
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	opt := search.Options{
		Seed: req.Seed, Threads: req.Threads,
		MaxEvaluations:       req.MaxEvaluations,
		ConsecutiveNoImprove: req.NoImprove,
		Objective:            obj,
	}
	if opt.MaxEvaluations <= 0 && opt.ConsecutiveNoImprove <= 0 {
		// Bound server-side work by default.
		opt.MaxEvaluations = 50000
	}

	// The request context aborts the search when the client disconnects;
	// timeout_ms additionally bounds wall time server-side.
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	algo := req.Search
	if algo == "" {
		algo = s.defaultSearch
	}
	res, err := search.Run(ctx, sp, s.engineFor(ev), algo, opt)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	if res.Best == nil {
		code := CodeNoValidMapping
		if ctx.Err() != nil {
			code = CodeSearchTimeout
		}
		writeErr(w, code,
			fmt.Errorf("no valid mapping found after %d samples", res.Evaluated))
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{
		mappingResult: mappingResult{
			Mapping: res.Best, Cost: res.BestCost,
			LoopNest: res.Best.Render(ev.Work, ev.Arch),
		},
		Evaluated: res.Evaluated, Valid: res.Valid,
		TimedOut: ctx.Err() != nil,
	})
}

func handleConstruct(w http.ResponseWriter, r *http.Request) {
	var req problemSpec
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	ev, sp, err := req.resolve()
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	m, c, err := heuristic.Construct(ev, sp.Kind, sp.Cons)
	if err != nil {
		writeErr(w, CodeNoValidMapping, err)
		return
	}
	writeJSON(w, http.StatusOK, mappingResult{Mapping: m, Cost: c, LoopNest: m.Render(ev.Work, ev.Arch)})
}
