package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"testing"
)

// gemmWorkloadJSON is a GEMM with one bound near 10^6 — the request class
// whose per-draw divisor tables used to be sized by the bound's value.
const gemmWorkloadJSON = `{"name": "gemm", "type": "matmul", "matmul": {"M": 999936, "N": 32, "K": 32}}`

// convWorkloadJSON is ResNet-50's res3x_branch2b 3x3 convolution.
const convWorkloadJSON = `{"name": "res3x", "type": "conv2d", "conv": {"N": 1, "M": 128, "C": 128, "P": 28, "Q": 28, "R": 3, "S": 3}}`

// rowStationaryJSON pins the row-stationary spatial dims the Eyeriss sweeps
// use.
const rowStationaryJSON = `{"spatial_x": ["Q"], "spatial_y": ["R"]}`

// replyGoldens are FNV-1a hashes of whole reply bodies at fixed seeds. A
// change to any draw, evaluation count, cost field or rendering of the
// search, evaluate or network paths shows up here.
var replyGoldens = []struct {
	name, path, body string
	want             uint64
}{
	{"random threads 1", "/v1/search", `{"workload": ` + convWorkloadJSON + `, "arch": ` + eyerissArchJSON +
		`, "constraints": ` + rowStationaryJSON + `, "mapspace": "ruby-s", "seed": 11, "threads": 1, "max_evaluations": 1500}`,
		0x3e94ee749023384e},
	{"random pfm", "/v1/search", `{"workload": ` + convWorkloadJSON + `, "arch": ` + eyerissArchJSON +
		`, "mapspace": "pfm", "seed": 12, "threads": 1, "max_evaluations": 1500}`,
		0x5ef124b11ef3080b},
	{"guided", "/v1/search", `{"workload": ` + convWorkloadJSON + `, "arch": ` + eyerissArchJSON +
		`, "constraints": ` + rowStationaryJSON + `, "mapspace": "ruby-s", "search": "guided", "seed": 13, "max_evaluations": 1500}`,
		0xb5fddb22b30906b4},
	{"gemm 10^6 bound", "/v1/search", `{"workload": ` + gemmWorkloadJSON + `, "arch": ` + eyerissArchJSON +
		`, "mapspace": "ruby-s", "seed": 14, "threads": 1, "max_evaluations": 600}`,
		0x57a6720c7f50dfcd},
	{"toy fig5", "/v1/search", `{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON +
		`, "mapspace": "ruby-s", "seed": 1, "threads": 1, "max_evaluations": 3000}`,
		0x9ef894f6877965bb},
	{"network", "/v1/network", `{"network": "deepbench-stacks", "arch": ` + eyerissArchJSON +
		`, "mapspace": "ruby-s", "seed": 7, "threads": 1, "max_evaluations": 300}`,
		0x640662a20a95ea5c},
}

// TestReplyGoldens pins the reply bodies of /v1/search (random, guided and a
// 10^6-bound GEMM), /v1/evaluate (of the first search's mapping) and a small
// /v1/network request.
func TestReplyGoldens(t *testing.T) {
	h := New()
	var firstMapping []byte
	for _, g := range replyGoldens {
		rec, out := do(t, h, "POST", g.path, g.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", g.name, rec.Code, out)
		}
		if firstMapping == nil {
			firstMapping = rec.Body.Bytes()
		}
		if got := fnv64(rec.Body.Bytes()); got != g.want {
			t.Errorf("%s: reply hash %#x, want %#x", g.name, got, g.want)
		}
	}

	// /v1/evaluate of the first search's mapping, fed back verbatim.
	var body []byte
	body = fmt.Appendf(body, `{"workload": %s, "arch": %s, "constraints": %s, "mapspace": "ruby-s", "mapping": %s}`,
		convWorkloadJSON, eyerissArchJSON, rowStationaryJSON, mappingField(t, firstMapping))
	rec, out := do(t, h, "POST", "/v1/evaluate", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("evaluate: status %d: %v", rec.Code, out)
	}
	if got, want := fnv64(rec.Body.Bytes()), uint64(0x4f103a54536ceb78); got != want {
		t.Errorf("evaluate: reply hash %#x, want %#x", got, want)
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// mappingField extracts the raw "mapping" member of a reply body.
func mappingField(t *testing.T, reply []byte) json.RawMessage {
	t.Helper()
	var r struct {
		Mapping json.RawMessage `json:"mapping"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		t.Fatal(err)
	}
	return r.Mapping
}

// TestSearchMemoryBounded sends one 10^6-bound GEMM search and bounds the
// bytes it allocates. Per-request samplers once sized their divisor tables
// by the bound (24 MB here) and every request carried a memo cache.
func TestSearchMemoryBounded(t *testing.T) {
	h := New()
	body := `{"workload": ` + gemmWorkloadJSON + `, "arch": ` + eyerissArchJSON +
		`, "mapspace": "ruby-s", "seed": 14, "threads": 1, "max_evaluations": 1000}`
	do(t, h, "POST", "/v1/search", body) // warm the process-wide state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, out := do(t, h, "POST", "/v1/search", body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	const limit = 2 << 20
	if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
		t.Errorf("one search allocated %d bytes, want < %d", n, limit)
	} else {
		t.Logf("one search allocated %d bytes", n)
	}
}
