package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ruby/internal/obs"
)

// envelope extracts the uniform failure envelope from a decoded response and
// fails the test if its shape deviates from {"error": {"code", "message"}}.
func envelope(t *testing.T, out map[string]any) (code, message string) {
	t.Helper()
	e, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("missing error envelope in %v", out)
	}
	code, ok = e["code"].(string)
	if !ok || code == "" {
		t.Fatalf("envelope has no code: %v", e)
	}
	message, ok = e["message"].(string)
	if !ok || message == "" {
		t.Fatalf("envelope has no message: %v", e)
	}
	return code, message
}

// TestErrorEnvelopePerRoute drives every v1 route into a failure and checks
// the envelope shape, the machine-readable code, and the HTTP status the
// code pins (docs/API.md documents the mapping).
func TestErrorEnvelopePerRoute(t *testing.T) {
	h := New()
	unsat := `{
	  "workload": {"name": "d", "type": "vector1d", "d": 7},
	  "arch": {"name": "tiny", "levels": [
	    {"name": "DRAM"},
	    {"name": "GLB", "capacity_words": 1, "fanout": {"x": 2}}
	  ]},
	  "max_evaluations": 300
	}`
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"search bad JSON", "POST", "/v1/search", `{`, 400, CodeInvalidRequest},
		{"search missing arch", "POST", "/v1/search", `{"workload": ` + toyWorkloadJSON + `}`, 400, CodeInvalidRequest},
		{"search unknown mapspace", "POST", "/v1/search",
			`{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `, "mapspace": "zigzag"}`, 400, CodeInvalidRequest},
		{"search unsatisfiable", "POST", "/v1/search", unsat, 422, CodeNoValidMapping},
		{"evaluate missing mapping", "POST", "/v1/evaluate",
			`{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `}`, 400, CodeInvalidRequest},
		{"construct missing workload", "POST", "/v1/construct", `{"arch": ` + toyArchJSON + `}`, 400, CodeInvalidRequest},
		{"jobs bad JSON", "POST", "/v1/jobs", `{`, 400, CodeInvalidRequest},
		{"job unknown id", "GET", "/v1/jobs/nope", "", 404, CodeNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, out := do(t, h, c.method, c.path, c.body)
			if rec.Code != c.wantStatus {
				t.Fatalf("status %d, want %d (%v)", rec.Code, c.wantStatus, out)
			}
			if code, _ := envelope(t, out); code != c.wantCode {
				t.Errorf("code %q, want %q", code, c.wantCode)
			}
		})
	}
}

// TestCodeStatusMap pins the documented code <-> status mapping.
func TestCodeStatusMap(t *testing.T) {
	want := map[string]int{
		CodeInvalidRequest: http.StatusBadRequest,
		CodeNotFound:       http.StatusNotFound,
		CodeNoValidMapping: http.StatusUnprocessableEntity,
		CodeSearchTimeout:  http.StatusGatewayTimeout,
		CodeUnavailable:    http.StatusServiceUnavailable,
		CodeInternal:       http.StatusInternalServerError,
	}
	for code, status := range want {
		if got := codeStatus(code); got != status {
			t.Errorf("codeStatus(%q) = %d, want %d", code, got, status)
		}
	}
	if got := codeStatus("never-seen"); got != http.StatusInternalServerError {
		t.Errorf("unknown code maps to %d, want 500", got)
	}
}

// TestMetricsPrometheusNegotiation checks that /v1/metrics serves the
// Prometheus text exposition when the client asks for text/plain, and the
// legacy JSON snapshot otherwise.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	h := New()
	do(t, h, "POST", "/v1/search", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "seed": 1, "threads": 2, "max_evaluations": 2000
	}`)

	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE ruby_evaluations_total counter",
		"ruby_evaluations_total",
		"ruby_eval_latency_seconds_bucket",
		`ruby_eval_latency_seconds_bucket{le="+Inf"}`,
		"ruby_eval_latency_seconds_count",
		`ruby_jobs{status="running"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("text exposition missing %q\n%s", want, body)
		}
	}

	// Without the Accept header the JSON counter snapshot is unchanged.
	rec2, out := do(t, h, "GET", "/v1/metrics", "")
	if ct := rec2.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	if out["evaluations"].(float64) < 2000 {
		t.Errorf("evaluations = %v, want >= 2000", out["evaluations"])
	}
}

// TestJobsGaugeAllStatuses checks the ruby_jobs gauge always exports every
// status label (zero-filled) so scrapes see a continuous series.
func TestJobsGaugeAllStatuses(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, status := range []string{"running", "done", "failed", "interrupted"} {
		if !strings.Contains(body, `ruby_jobs{status="`+status+`"}`) {
			t.Errorf("ruby_jobs missing status %q\n%s", status, body)
		}
	}
}

// metricsExposition is every series /v1/metrics serves as Prometheus text:
// its HELP and TYPE lines, in exposition order.
const metricsExposition = `# HELP ruby_evaluations_total Total mapping evaluations through the engine.
# TYPE ruby_evaluations_total counter
# HELP ruby_valid_total Evaluations with a valid verdict.
# TYPE ruby_valid_total counter
# HELP ruby_improvements_total Incumbent-best improvement events.
# TYPE ruby_improvements_total counter
# HELP ruby_searches_total Completed searches.
# TYPE ruby_searches_total counter
# HELP ruby_search_seconds_total Summed search wall time in seconds.
# TYPE ruby_search_seconds_total counter
# HELP ruby_eval_panics_total Recovered model-evaluation panics (incl. retries).
# TYPE ruby_eval_panics_total counter
# HELP ruby_guided_moves Committed moves of the model-guided searcher.
# TYPE ruby_guided_moves counter
# HELP ruby_guided_restarts Perturbation restarts of the model-guided searcher.
# TYPE ruby_guided_restarts counter
# HELP ruby_portfolio_wins Portfolio searches won, by member searcher.
# TYPE ruby_portfolio_wins gauge
# HELP ruby_eval_latency_seconds Model evaluation latency (sampled; see engine.Config.LatencySampleEvery).
# TYPE ruby_eval_latency_seconds histogram
# HELP ruby_batch_latency_seconds EvaluateBatch wall time.
# TYPE ruby_batch_latency_seconds histogram
# HELP ruby_search_wall_seconds Per-search wall time.
# TYPE ruby_search_wall_seconds histogram
# HELP ruby_search_best_edp Best objective value (EDP by default) per completed search.
# TYPE ruby_search_best_edp histogram
# HELP ruby_jobs Number of search jobs by status.
# TYPE ruby_jobs gauge
`

// TestMetricsExpositionGolden pins the series names, types and help text of
// the Prometheus exposition, and the keys of the JSON counter snapshot.
func TestMetricsExpositionGolden(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var meta strings.Builder
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			meta.WriteString(line)
		}
	}
	if got := meta.String(); got != metricsExposition {
		t.Errorf("exposition series changed:\n%s\nwant:\n%s", got, metricsExposition)
	}

	_, out := do(t, h, "GET", "/v1/metrics", "")
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"evaluations", "guided_moves", "guided_restarts", "improvements",
		"panics", "search_seconds", "searches", "valid", "valid_rate"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("JSON snapshot keys = %v, want %v", keys, want)
	}
}
