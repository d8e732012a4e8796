package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// testSpec is a small problem every dist test shares: a 12x6x4 matmul on a
// two-level toy architecture, small enough for exhaustive scans in tests.
func testSpec(algo string) *JobSpec {
	return &JobSpec{
		Workload: json.RawMessage(`{"name": "mm", "type": "matmul", "matmul": {"m": 12, "n": 6, "k": 4}}`),
		Arch: json.RawMessage(`{
		  "name": "toy",
		  "levels": [
		    {"name": "DRAM"},
		    {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}
		  ]}`),
		Mapspace: "ruby-s",
		Search:   algo,
	}
}

func TestBuildPlanChain(t *testing.T) {
	spec := testSpec("exhaustive")
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(sp, "exhaustive", 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanChain || p.LeadDim != sp.LeadingDim() {
		t.Fatalf("plan kind %q lead %q, want chain over %q", p.Kind, p.LeadDim, sp.LeadingDim())
	}
	if err := p.Validate(sp); err != nil {
		t.Fatalf("built plan fails validation: %v", err)
	}
	// Determinism: the plan is a pure function of its inputs.
	p2, err := BuildPlan(sp, "exhaustive", 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Errorf("BuildPlan is not deterministic:\n%+v\n%+v", p, p2)
	}
	// Oversharding clamps to one chain per shard rather than emitting empty
	// shards.
	total := int(sp.ChainCount(sp.LeadingDim()))
	pBig, err := BuildPlan(sp, "exhaustive", 7, total+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pBig.Shards) != total {
		t.Errorf("overshard produced %d shards for %d chains", len(pBig.Shards), total)
	}
	if err := pBig.Validate(sp); err != nil {
		t.Errorf("oversharded plan fails validation: %v", err)
	}
}

func TestBuildPlanSubstream(t *testing.T) {
	spec := testSpec("random")
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(sp, "random", 42, 4, 1003)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanSubstream {
		t.Fatalf("kind = %q, want substream", p.Kind)
	}
	if err := p.Validate(sp); err != nil {
		t.Fatalf("built plan fails validation: %v", err)
	}
	var total int64
	seeds := map[int64]bool{}
	for _, sh := range p.Shards {
		total += sh.MaxEvaluations
		seeds[sh.Seed] = true
	}
	if total != 1003 {
		t.Errorf("shard budgets sum to %d, want 1003", total)
	}
	if len(seeds) != len(p.Shards) {
		t.Errorf("per-shard seeds collide: %d distinct of %d", len(seeds), len(p.Shards))
	}

	if _, err := BuildPlan(sp, "random", 42, 4, 0); err == nil {
		t.Error("substream plan without a budget accepted")
	}
	if _, err := BuildPlan(sp, "anneal", 42, 4, 100); err == nil {
		t.Error("non-resumable algorithm accepted")
	}
	// More shards than budget: clamp, never zero-budget shards.
	pTiny, err := BuildPlan(sp, "random", 42, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pTiny.Shards) != 3 {
		t.Errorf("budget-3 plan has %d shards, want 3", len(pTiny.Shards))
	}
}

func TestPlanValidateRejectsMismatch(t *testing.T) {
	spec := testSpec("exhaustive")
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(sp, "exhaustive", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken := *p
	broken.Shards = append([]Shard(nil), p.Shards...)
	broken.Shards[1].Chain.Lo++ // gap in the partition
	if err := broken.Validate(sp); err == nil {
		t.Error("gapped chain partition accepted")
	}
	broken2 := *p
	broken2.LeadDim = "nope"
	if err := broken2.Validate(sp); err == nil {
		t.Error("wrong leading dimension accepted")
	}
}

// fakeClock is a manually advanced clock for lease tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func testPlan(t *testing.T, algo string, n int, budget int64) *Plan {
	t.Helper()
	_, sp, err := testSpec(algo).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(sp, algo, 7, n, budget)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(testPlan(t, "exhaustive", 3, 0), 10*time.Second, clk.now)

	sh, ckpt, ok := c.Lease("w1")
	if !ok || sh.Index != 0 || ckpt != nil {
		t.Fatalf("first lease = %+v, %v, %v", sh, ckpt, ok)
	}
	if !c.Heartbeat(0, "w1") {
		t.Error("heartbeat by the holder rejected")
	}
	if c.Heartbeat(0, "w2") {
		t.Error("heartbeat by a non-holder renewed the lease")
	}

	// A renewed lease survives the original TTL window...
	clk.advance(8 * time.Second)
	c.Heartbeat(0, "w1")
	clk.advance(8 * time.Second)
	if n := c.ExpireLeases(); n != 0 {
		t.Fatalf("renewed lease expired (%d)", n)
	}
	// ...but lapses once the heartbeats stop.
	clk.advance(11 * time.Second)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("lapsed lease not expired (%d)", n)
	}
	sv, err := c.Shard(0)
	if err != nil || sv.Status != ShardPending || sv.Requeues != 1 {
		t.Fatalf("expired shard = %+v, %v", sv, err)
	}

	// Checkpoints stick only for the current holder.
	sh2, _, _ := c.Lease("w2")
	if sh2.Index != 0 {
		t.Fatalf("re-queued shard not re-leased first, got %d", sh2.Index)
	}
	c.SaveCheckpoint(0, "w1", json.RawMessage(`{"stale": true}`)) // stale holder
	c.SaveCheckpoint(0, "w2", json.RawMessage(`{"fresh": true}`))
	c.Fail(0, "w2")
	_, ckpt, _ = c.Lease("w3")
	if string(ckpt) != `{"fresh": true}` {
		t.Errorf("re-lease carried checkpoint %s", ckpt)
	}
}

// TestCompleteIdempotentAfterRequeue is the worker-dies-after-commit case: a
// worker finishes its shard (the search committed its last evaluation) but
// the coordinator never hears the report and re-queues the shard. When the
// replacement reports — and the original's report later straggles in — the
// shard's evaluations are counted exactly once and the incumbent survives.
func TestCompleteIdempotentAfterRequeue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(testPlan(t, "exhaustive", 2, 0), 10*time.Second, clk.now)

	res := ShardResult{Mapping: json.RawMessage(`{"m": 1}`), Objective: 2.5, Evaluated: 40, Valid: 30}

	// w1 takes shard 0, finishes it, but its report is lost: the lease
	// lapses and the shard is re-queued to w2.
	c.Lease("w1")
	clk.advance(11 * time.Second)
	c.ExpireLeases()
	sh, _, ok := c.Lease("w2")
	if !ok || sh.Index != 0 {
		t.Fatalf("re-queued shard went to %d, %v", sh.Index, ok)
	}

	// The shard contract makes w2's report identical to w1's. First report
	// wins — here w2 — and w1's straggler is dropped.
	if !c.Complete(0, "w2", res) {
		t.Fatal("current holder's report rejected")
	}
	if c.Complete(0, "w1", res) {
		t.Error("duplicate straggler report accepted")
	}

	m := c.Merged()
	if m.Evaluated != 40 || m.Valid != 30 {
		t.Errorf("double-counted: evaluated %d valid %d, want 40/30", m.Evaluated, m.Valid)
	}
	if string(m.Best) != `{"m":1}` || m.BestShard != 0 {
		t.Errorf("incumbent lost: %s from shard %d", m.Best, m.BestShard)
	}

	// The reverse order — the original holder reports before the
	// replacement — must also count once.
	c2 := NewCoordinator(testPlan(t, "exhaustive", 2, 0), 10*time.Second, clk.now)
	c2.Lease("w1")
	clk.advance(11 * time.Second)
	c2.ExpireLeases()
	c2.Lease("w2")
	if !c2.Complete(0, "w1", res) { // stale holder, shard not done: accepted
		t.Fatal("stale holder's first report rejected")
	}
	if c2.Complete(0, "w2", res) {
		t.Error("replacement's duplicate accepted")
	}
	if m := c2.Merged(); m.Evaluated != 40 {
		t.Errorf("reverse order double-counted: %d", m.Evaluated)
	}
}

func TestMergedPrefersLowestShardOnTie(t *testing.T) {
	c := NewCoordinator(testPlan(t, "exhaustive", 3, 0), 0, nil)
	c.Complete(1, "w", ShardResult{Mapping: json.RawMessage(`{"b": 1}`), Objective: 1.0, Evaluated: 1})
	c.Complete(0, "w", ShardResult{Mapping: json.RawMessage(`{"a": 1}`), Objective: 1.0, Evaluated: 1})
	c.Complete(2, "w", ShardResult{Evaluated: 5}) // no valid mapping: counters only
	m := c.Merged()
	if m.BestShard != 0 || string(m.Best) != `{"a":1}` {
		t.Errorf("tie broke to shard %d (%s), want lowest index", m.BestShard, m.Best)
	}
	if m.Evaluated != 7 {
		t.Errorf("evaluated = %d, want 7", m.Evaluated)
	}
}

func TestPlanStateRoundTrip(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	spec := testSpec("exhaustive")
	c := NewCoordinator(testPlan(t, "exhaustive", 3, 0), 10*time.Second, clk.now)
	c.Complete(0, "w1", ShardResult{Mapping: json.RawMessage(`{"m": 0}`), Objective: 3, Evaluated: 10, Valid: 8})
	c.Lease("w2") // shard 1 leased: must persist as pending
	c.SaveCheckpoint(1, "w2", json.RawMessage(`{"cp": 1}`))

	path := t.TempDir() + "/coord.json"
	if err := c.SaveState(path, spec); err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec == nil || st.Spec.Search != "exhaustive" {
		t.Fatalf("spec not embedded: %+v", st.Spec)
	}
	r, err := RestoreCoordinator(st, 10*time.Second, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	views := r.Shards()
	if views[0].Status != ShardDone || views[0].Result == nil || views[0].Result.Evaluated != 10 {
		t.Errorf("done shard lost: %+v", views[0])
	}
	if views[1].Status != ShardPending {
		t.Errorf("leased shard restored as %q, want pending", views[1].Status)
	}
	// The held checkpoint survives and seeds the next lease. The state file
	// re-indents embedded raw JSON, so compare compacted bytes.
	_, ckpt, ok := r.Lease("w3")
	var buf bytes.Buffer
	if err := json.Compact(&buf, ckpt); err != nil {
		t.Fatalf("restored checkpoint is not JSON: %v", err)
	}
	if !ok || buf.String() != `{"cp":1}` {
		t.Errorf("restored lease = %s, %v", ckpt, ok)
	}
	// Accounting carried over: completing the rest must not re-count shard 0.
	r.Complete(1, "w3", ShardResult{Evaluated: 5})
	r.Complete(2, "w3", ShardResult{Evaluated: 5})
	if !r.Done() {
		t.Error("restored coordinator not done after completing remaining shards")
	}
	if m := r.Merged(); m.Evaluated != 20 {
		t.Errorf("restored accounting: evaluated %d, want 20", m.Evaluated)
	}
}

func TestRestoreCoordinatorRejectsCorruptState(t *testing.T) {
	p := testPlan(t, "exhaustive", 2, 0)
	if _, err := RestoreCoordinator(&PlanState{Plan: p, Shard: []ShardSnapshot{{}}}, 0, nil); err == nil {
		t.Error("shard-count mismatch accepted")
	}
	if _, err := RestoreCoordinator(&PlanState{
		Plan:  p,
		Shard: []ShardSnapshot{{Status: ShardDone}, {}},
	}, 0, nil); err == nil {
		t.Error("done shard without result accepted")
	}
}

func TestRunLocalDeterministic(t *testing.T) {
	spec := testSpec("random")
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(sp, "random", 11, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluated != 600 || a.Evaluated != b.Evaluated || a.Valid != b.Valid {
		t.Errorf("counters differ: %+v vs %+v", a, b)
	}
	if string(a.Best) != string(b.Best) || a.BestObjective != b.BestObjective || a.BestShard != b.BestShard {
		t.Errorf("incumbent differs:\n%s (%v, shard %d)\n%s (%v, shard %d)",
			a.Best, a.BestObjective, a.BestShard, b.Best, b.BestObjective, b.BestShard)
	}
	if a.Best == nil {
		t.Error("no incumbent found")
	}
}

// TestRunLocalGolden pins the merged result of single-node reference runs
// (random and guided substream plans) as FNV-1a hashes of its JSON.
func TestRunLocalGolden(t *testing.T) {
	for _, g := range []struct {
		algo string
		want uint64
	}{
		{"random", 0xb892579767595748},
		{"guided", 0x69379126b79cb6f},
	} {
		spec := testSpec(g.algo)
		_, sp, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(sp, g.algo, 11, 3, 900)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunLocal(context.Background(), spec, plan)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		if got := h.Sum64(); got != g.want {
			t.Errorf("%s: merged hash %#x, want %#x\n%s", g.algo, got, g.want, raw)
		}
	}
}
