package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"testing"

	"repro/serve"
)

// The benchmark's own smoke test: every workload at a tiny size, in both
// modes, must print every metric BENCHMARK.json names with its unit and
// find every answer correct; and an answer corrupted by one ulp on the wire
// must count as a failure. Run it from this directory with go test.

type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		workdir: t.TempDir(), rows: 2000, setups: 2,
	}
}

func quiet(t *testing.T) *os.File {
	f, err := os.Create(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(c.Workloads) && c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json names %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			rep, err := benchmark(tinyConfig(t, w.name, trace), quiet(t))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// corruptWriter holds a node's response so the test can alter it.
type corruptWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *corruptWriter) WriteHeader(code int)        { w.status = code }
func (w *corruptWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// corruptHottest raises the best score of every answer to the hottest
// topk-zipf query by one ulp.
func corruptHottest(t *testing.T, seed int64) wrapper {
	hottest := newQuerySet(seed, true).get(0).body
	return func(layer, url string, srv *serve.Server, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			in, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("corrupt: read request: %v", err)
			}
			r.Body = io.NopCloser(bytes.NewReader(in))
			if r.URL.Path != "/v1/topk" || !bytes.Equal(in, hottest) {
				h.ServeHTTP(w, r)
				return
			}
			cw := &corruptWriter{ResponseWriter: w, status: http.StatusOK}
			h.ServeHTTP(cw, r)
			var resp struct {
				Results []struct {
					ID    int     `json:"id"`
					Score float64 `json:"score"`
				} `json:"results"`
			}
			if err := json.Unmarshal(cw.body.Bytes(), &resp); err != nil || len(resp.Results) == 0 {
				t.Errorf("corrupt: cannot decode answer %q: %v", cw.body.Bytes(), err)
				return
			}
			resp.Results[0].Score = math.Nextafter(resp.Results[0].Score, math.Inf(1))
			out, _ := json.Marshal(resp) // plain structs always encode
			w.WriteHeader(cw.status)
			w.Write(out)
		})
	}
}

func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := tinyConfig(t, "topk-zipf", trace)
		cfg.wrap = corruptHottest(t, cfg.seed)
		rep, err := benchmark(cfg, quiet(t))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed < 1 {
			t.Errorf("trace=%v: a corrupted answer went unnoticed: correct=%v failed=%d", trace, rep.Correct, rep.Failed)
		}
	}
}
