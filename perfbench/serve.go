package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ruby/internal/arch"
	"ruby/internal/config"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/server"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// reqClass is one kind of request in the serve-mixed traffic.
type reqClass int

const (
	classRandom   reqClass = iota // /v1/search, random sampling, threads 1
	classGuided                   // /v1/search, search "guided"
	classThreaded                 // /v1/search, random sampling, threads nproc
	classEvaluate                 // /v1/evaluate of a mapping gathered at set-up
	classGEMM                     // /v1/search of a GEMM with a bound near 10^6
)

var classNames = [...]string{"random", "guided", "threaded", "evaluate", "gemm"}

// The batch: every ResNet-50 and DeepBench sweep layer as a random search,
// every fifth as a guided and as a multi-threaded search, every third as an
// evaluation, plus the large GEMMs. The seed draws the search seeds and the
// batch order, so every seed sends the same problems. The fast classes
// (evaluate, guided) stay under a third of the batch, so the median latency
// falls inside the random class rather than in the sparse gap between the
// two, where it jumped by 25% from run to run. Budgets stay at 1000 or more:
// smaller random searches of the 7x7 stride-2 convolutions often find no
// valid mapping at all.
var serveMix = [...]struct {
	every int   // one template per this many layers of the pool
	evals int64 // search budget; for evaluate, of the set-up search
}{
	classRandom:   {1, 1000},
	classGuided:   {5, 1000},
	classThreaded: {5, 2000},
	classEvaluate: {3, 1000},
	classGEMM:     {0, 1000},
}

// gemmShapes are the GEMM class's problems: one bound near 10^6, so the
// sampler's divisor table is sized by it.
var gemmShapes = [][3]int{{1_000_000, 16, 32}, {999_936, 32, 32}, {999_872, 48, 32}, {999_808, 64, 32}}

// drawAttempts bounds how many search seeds set-up tries for one template.
const drawAttempts = 8

// template is one request of a batch. Every batch sends every template once.
type template struct {
	class reqClass
	path  string
	body  []byte
	prob  problemSpec
	evals int64 // search budget (0 for evaluate requests)
}

// problemSpec is the workload/architecture fragment of a request, in the
// server's JSON schema.
type problemSpec struct {
	Workload    json.RawMessage `json:"workload"`
	Arch        json.RawMessage `json:"arch"`
	Constraints json.RawMessage `json:"constraints,omitempty"`
	Mapspace    string          `json:"mapspace,omitempty"`
}

type searchBody struct {
	problemSpec
	Search         string `json:"search,omitempty"`
	Seed           int64  `json:"seed"`
	Threads        int    `json:"threads"`
	MaxEvaluations int64  `json:"max_evaluations"`
}

type evaluateBody struct {
	problemSpec
	Mapping json.RawMessage `json:"mapping"`
}

// reply is the part of a /v1/search or /v1/evaluate response the checks
// read.
type reply struct {
	Mapping   json.RawMessage `json:"mapping"`
	Cost      json.RawMessage `json:"cost"`
	Evaluated int64           `json:"evaluated"`
}

// served is the record of one response.
type served struct {
	status int
	body   []byte
}

// serve drives an in-process server.Service behind a loopback
// httptest.Server in a closed loop: nproc clients each send their next
// request as soon as the previous reply arrives.
type serve struct {
	seed int64
	tiny bool

	templates []*template
	svc       *server.Service
	ts        *httptest.Server
	client    *http.Client
	rec       atomic.Pointer[obs.Recorder] // set while a traced unit runs

	// Per template: the first response, every response's status and body
	// digest, and every response of the order-racy threaded class.
	first    []served
	statuses [][]int
	hashes   [][][32]byte
	threaded [][]served
	batches  int
	sent     int64 // units started; seeds each unit's send order
}

func newServe(seed int64, tiny bool) *serve { return &serve{seed: seed, tiny: tiny} }

func (b *serve) setup(ctx context.Context) error {
	svc, err := server.NewService(server.Options{})
	if err != nil {
		return err
	}
	b.svc = svc
	b.ts = httptest.NewServer(b.traceRequests(svc))
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(),
	}}
	if err := b.buildTemplates(ctx); err != nil {
		return err
	}
	n := len(b.templates)
	b.first, b.statuses, b.hashes = make([]served, n), make([][]int, n), make([][][32]byte, n)
	b.threaded, b.batches, b.sent = make([][]served, n), 0, 0
	return nil
}

// traceRequests wraps the service so that, while a traced unit runs, every
// request context carries the recorder and one span per request.
func (b *serve) traceRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := b.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		ctx, span := obs.StartSpan(obs.WithRecorder(r.Context(), rec), "http:"+r.URL.Path)
		defer span.End()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// serveArrays are the Eyeriss-like arrays requests target, cycled over the
// pool.
var serveArrays = []struct{ cols, rows int }{{14, 12}, {8, 8}, {16, 16}}

// buildTemplates builds the batch. Each template is sent once as the
// warm-up; a search that finds no valid mapping within its budget is
// retried with the next seed, so the measured batches hold only answerable
// requests. The tiny size keeps one template in four.
func (b *serve) buildTemplates(ctx context.Context) error {
	rng := rand.New(rand.NewSource(b.seed))
	pool := append(workloads.ResNet50(), deepBenchSweep()...)
	var ts []*template
	for class, mix := range serveMix {
		var works []*workload.Workload
		if reqClass(class) == classGEMM {
			for i, g := range gemmShapes {
				works = append(works, workload.MustMatmul(fmt.Sprintf("gemm_%d", i), g[0], g[1], g[2]))
			}
		} else {
			for i := 0; i < len(pool); i += mix.every {
				works = append(works, pool[i].Work)
			}
		}
		for i, w := range works {
			if b.tiny && i%4 != 0 {
				continue
			}
			c := serveArrays[(i+class)%len(serveArrays)]
			kind := "ruby-s"
			if i%4 == 3 {
				kind = "pfm"
			}
			prob, err := problemFor(w, arch.EyerissLike(c.cols, c.rows, 128), kind)
			if err != nil {
				return err
			}
			t, err := b.answerable(ctx, rng, reqClass(class), prob, mix.evals)
			if err != nil {
				return err
			}
			ts = append(ts, t)
		}
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	b.templates = ts
	return nil
}

// answerable draws search seeds for one template until its search answers
// 200, and turns evaluate templates into an evaluation of the mapping found.
func (b *serve) answerable(ctx context.Context, rng *rand.Rand, class reqClass, prob problemSpec, evals int64) (*template, error) {
	var last served
	for attempt := 0; attempt < drawAttempts; attempt++ {
		sb := searchBody{problemSpec: prob, Seed: rng.Int63n(1 << 30), Threads: 1, MaxEvaluations: evals}
		switch class {
		case classGuided:
			sb.Search = "guided"
		case classThreaded:
			sb.Threads = nproc()
		}
		t := &template{class: class, path: "/v1/search", prob: prob, evals: evals}
		var err error
		if t.body, err = json.Marshal(sb); err != nil {
			return nil, err
		}
		if last = b.do(ctx, t); last.status != http.StatusOK {
			continue
		}
		if class == classEvaluate {
			var rp reply
			if err := json.Unmarshal(last.body, &rp); err != nil {
				return nil, err
			}
			t.path, t.evals = "/v1/evaluate", 0
			if t.body, err = json.Marshal(evaluateBody{problemSpec: prob, Mapping: rp.Mapping}); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	return nil, fmt.Errorf("no answerable %s request in %d seeds; last reply: status %d: %s",
		classNames[class], drawAttempts, last.status, last.body)
}

// problemFor renders a workload and architecture in the server's schema,
// with the row-stationary constraints the sweeps use.
func problemFor(w *workload.Workload, a *arch.Arch, kind string) (problemSpec, error) {
	wj, err := workloadJSON(w)
	if err != nil {
		return problemSpec{}, err
	}
	aj, err := json.Marshal(archFile(a))
	if err != nil {
		return problemSpec{}, err
	}
	cons := mapspace.EyerissRowStationary(w)
	cj, err := json.Marshal(config.ConstraintsFile{SpatialX: cons.SpatialX, SpatialY: cons.SpatialY})
	if err != nil {
		return problemSpec{}, err
	}
	return problemSpec{Workload: wj, Arch: aj, Constraints: cj, Mapspace: kind}, nil
}

// workloadJSON renders a workload as the extended-Einsum form of the
// workload schema: output on the left, input then weights on the right.
func workloadJSON(w *workload.Workload) ([]byte, error) {
	ref := func(t *workload.Tensor) string {
		axes := make([]string, len(t.Coords))
		for i, c := range t.Coords {
			terms := make([]string, len(c.Terms))
			for k, tm := range c.Terms {
				terms[k] = strings.ToLower(tm.Dim)
				if tm.Stride != 1 {
					terms[k] = fmt.Sprintf("%d*%s", tm.Stride, terms[k])
				}
			}
			axes[i] = strings.Join(terms, "+")
		}
		return t.Name + "[" + strings.Join(axes, ",") + "]"
	}
	var rhs []string
	for _, role := range []workload.Role{workload.Input, workload.Weight} {
		for i := range w.Tensors {
			if w.Tensors[i].Role == role {
				rhs = append(rhs, ref(&w.Tensors[i]))
			}
		}
	}
	bounds := make(map[string]int, len(w.Dims))
	for _, d := range w.Dims {
		bounds[d.Name] = d.Bound
	}
	return json.Marshal(config.WorkloadFile{
		Name: w.Name, Type: "einsum",
		Einsum: &config.EinsumFile{Expr: ref(w.Output()) + " += " + strings.Join(rhs, " * "), Bounds: bounds},
	})
}

// archFile renders an architecture in the architecture schema.
func archFile(a *arch.Arch) config.ArchFile {
	f := config.ArchFile{Name: a.Name, MACEnergyPJ: a.Energy.MACPJ, DRAMEnergyPJ: a.Energy.DRAMPJ, SRAMScale: a.Energy.SRAMScale}
	for _, l := range a.Levels {
		lf := config.LevelFile{Name: l.Name, CapacityWords: l.Capacity,
			BandwidthWords: l.BandwidthWords, StaticPJPerCycle: l.StaticPJPerCycle}
		for _, r := range workload.Roles {
			name := strings.ToLower(r.String())
			if words, ok := l.PerRole[r]; ok {
				if lf.PerRoleWords == nil {
					lf.PerRoleWords = map[string]int64{}
				}
				lf.PerRoleWords[name] = words
			}
			if l.Keeps[r] {
				lf.Keeps = append(lf.Keeps, name)
			}
		}
		if l.Fanout != (arch.Network{}) {
			lf.Fanout = &config.FanoutFile{X: l.Fanout.FanoutX, Y: l.Fanout.FanoutY,
				Multicast: l.Fanout.Multicast, HopEnergyPJ: l.Fanout.HopEnergyPJ}
		}
		f.Levels = append(f.Levels, lf)
	}
	return f
}

// do sends one request and reads the whole reply. A transport failure comes
// back as status 0 with the error as the body.
func (b *serve) do(ctx context.Context, t *template) served {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+t.path, bytes.NewReader(t.body))
	if err != nil {
		return served{body: []byte(err.Error())}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return served{body: []byte(err.Error())}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return served{body: []byte(err.Error())}
	}
	return served{status: resp.StatusCode, body: body}
}

func (b *serve) variants() int { return 1 }

// unit sends every template once from nproc closed-loop clients.
func (b *serve) unit(ctx context.Context, traced bool, _ int) (unitOut, error) {
	if traced {
		b.rec.Store(obs.RecorderFrom(ctx))
		defer b.rec.Store(nil)
	}
	before := countersOf(b.svc.Counters()).evals
	n := len(b.templates)
	lat := make([]float64, n)
	got := make([]served, n)
	// Every batch sends the templates in its own order, so a run averages
	// over many pairings of concurrent requests.
	b.sent++
	order := rand.New(rand.NewSource(b.seed*1_000_003 + b.sent)).Perm(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := order[k]
				start := time.Now()
				got[i] = b.do(ctx, b.templates[i])
				lat[i] = time.Since(start).Seconds()
			}
		}()
	}
	wg.Wait()
	out := unitOut{ops: lat, evals: countersOf(b.svc.Counters()).evals - before}
	for i, t := range b.templates {
		out.reqBytes += int64(len(t.body))
		out.respBytes += int64(len(got[i].body))
		if t.class != classThreaded && t.class != classEvaluate && got[i].status == http.StatusOK {
			var rp struct {
				Cost struct{ EDP float64 } `json:"cost"`
			}
			if json.Unmarshal(got[i].body, &rp) == nil {
				out.edps = append(out.edps, rp.Cost.EDP)
			}
		}
	}
	out.settle = func() { b.record(got) }
	return out, nil
}

// record keeps what verify needs from one batch.
func (b *serve) record(got []served) {
	for i, t := range b.templates {
		if b.batches == 0 {
			b.first[i] = got[i]
		}
		b.statuses[i] = append(b.statuses[i], got[i].status)
		b.hashes[i] = append(b.hashes[i], sha256.Sum256(got[i].body))
		if t.class == classThreaded {
			b.threaded[i] = append(b.threaded[i], got[i])
		}
	}
	b.batches++
}

// verify checks every response: status 200, a cost identical to a fresh
// evaluation of the returned mapping, exactly the budget spent by random
// searches, and — except for the order-racy threaded class — the same bytes
// in every batch.
func (b *serve) verify() checkResult {
	var c checkResult
	for i, t := range b.templates {
		c.attempted += int64(len(b.statuses[i]))
		for k, st := range b.statuses[i] {
			if st != http.StatusOK {
				c.fail("%s request %d, batch %d: status %d", classNames[t.class], i, k, st)
			}
		}
		toCheck := []served{b.first[i]}
		if t.class == classThreaded {
			toCheck = b.threaded[i]
		} else {
			for k, h := range b.hashes[i] {
				if h != b.hashes[i][0] {
					c.fail("%s request %d: batch %d reply differs from batch 0's", classNames[t.class], i, k)
				}
			}
		}
		for _, s := range toCheck {
			if s.status != http.StatusOK {
				continue // already counted
			}
			if err := checkReply(t, s.body); err != nil {
				c.fail("%s request %d: %v", classNames[t.class], i, err)
			}
		}
	}
	return c
}

// checkReply re-evaluates a reply's mapping on the request's own problem
// with a fresh evaluator and compares the cost bit for bit.
func checkReply(t *template, body []byte) error {
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	w, err := config.ParseWorkload(t.prob.Workload)
	if err != nil {
		return err
	}
	a, err := config.ParseArch(t.prob.Arch)
	if err != nil {
		return err
	}
	ev, err := nest.NewEvaluator(w, a)
	if err != nil {
		return err
	}
	m, err := mapping.Decode(rp.Mapping, w, mapping.Slots(a))
	if err != nil {
		return err
	}
	fresh, err := json.Marshal(ev.Evaluate(m))
	if err != nil {
		return err
	}
	var reported bytes.Buffer
	if err := json.Compact(&reported, rp.Cost); err != nil {
		return err
	}
	if !bytes.Equal(fresh, reported.Bytes()) {
		return fmt.Errorf("reported cost %s, fresh evaluation %s", reported.Bytes(), fresh)
	}
	if t.class != classGuided && t.evals > 0 && rp.Evaluated != t.evals {
		return fmt.Errorf("random search spent %d evaluations, budget %d", rp.Evaluated, t.evals)
	}
	return nil
}

// serviceSampleEvery is the latency sampling period of the service's
// engines (engine.Config's default): one full evaluation in 64 is timed.
const serviceSampleEvery = 64

// engineCounts reads the service's own counters. Full evaluations and their
// time are the sampled latency count and sum scaled by the sampling period.
func (b *serve) engineCounts() engineCounts {
	c := countersOf(b.svc.Counters())
	var text bytes.Buffer
	if err := b.svc.Registry().WriteText(&text); err != nil {
		return c
	}
	sc := bufio.NewScanner(&text)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		v, err := strconv.ParseFloat(val, 64)
		switch {
		case err != nil:
		case name == "ruby_eval_latency_seconds_sum":
			c.evalSeconds = v * serviceSampleEvery
		case name == "ruby_eval_latency_seconds_count":
			c.fullEvals = int64(v) * serviceSampleEvery
		}
	}
	return c
}

// probePoints returns the problems of the first template of each search
// class, seeded with the mapping of its first reply.
func (b *serve) probePoints() []probePoint {
	var pts []probePoint
	seen := map[reqClass]bool{}
	for i, t := range b.templates {
		if seen[t.class] || t.class == classEvaluate || b.first[i].status != http.StatusOK {
			continue
		}
		seen[t.class] = true
		var rp reply
		w, err1 := config.ParseWorkload(t.prob.Workload)
		a, err2 := config.ParseArch(t.prob.Arch)
		cons, err3 := config.ParseConstraints(t.prob.Constraints)
		if err1 != nil || err2 != nil || err3 != nil || json.Unmarshal(b.first[i].body, &rp) != nil {
			continue
		}
		m, err := mapping.Decode(rp.Mapping, w, mapping.Slots(a))
		if err != nil {
			continue
		}
		kind := mapspace.RubyS
		if t.prob.Mapspace == "pfm" {
			kind = mapspace.PFM
		}
		pts = append(pts, probePoint{name: classNames[t.class] + ":" + w.Name, work: w, arch: a, kind: kind, cons: cons, best: m})
	}
	return pts
}

func (b *serve) close() {
	if b.ts != nil {
		b.ts.Close()
		b.client.CloseIdleConnections()
		_ = b.svc.Shutdown(context.Background()) // in-memory jobs only; nothing to persist
		b.ts = nil
	}
}
