package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	sdquery "repro"
)

// JSON wire format. The binary Save/Load format (package sdquery) persists
// whole indexes; this is the per-request query format the HTTP API speaks.
//
// A query:
//
//	{"point": [0.1, 0.9], "k": 5,
//	 "roles": ["repulsive", "attractive"],   // or "r"/"a"/"i"
//	 "weights": [1, 0.5],                    // optional; default 1 per active dim
//	 "stats": true}                          // optional; include work counters
//
// A top-k response:
//
//	{"results": [{"id": 17, "score": 0.42}, ...],
//	 "stats": {"fetched": 1890, ...}}        // only when requested
//
// Scores are encoded with encoding/json's shortest-roundtrip float
// formatting, so a response is byte-identical to encoding the results of a
// direct SDIndex.TopK call — the property the e2e golden tests pin.
// Unknown fields are rejected: a typo'd knob fails loudly with a 400
// instead of being silently ignored.

// maxBodyBytes bounds every request body read; oversized requests fail with
// 400 before any decode work happens.
const maxBodyBytes = 8 << 20

type wireQuery struct {
	Point   []float64 `json:"point"`
	K       int       `json:"k"`
	Roles   []string  `json:"roles"`
	Weights []float64 `json:"weights"`
	Stats   bool      `json:"stats"`
}

type wireBatch struct {
	Queries []wireQuery `json:"queries"`
}

type wireInsert struct {
	Point []float64 `json:"point"`
	// ID optionally assigns the point's global ID (must be above every ID the
	// index has seen). Distributed writers use it to make insert retries
	// idempotent — see Server.insertWithID. Absent, the index assigns.
	ID *int `json:"id,omitempty"`
}

type wireSwap struct {
	Path string `json:"path"`
}

type wireResult struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type wireStats struct {
	Subproblems   int `json:"subproblems"`
	Segments      int `json:"segments"`
	Fetched       int `json:"fetched"`
	Scored        int `json:"scored"`
	Rounds        int `json:"rounds"`
	PlanCacheHits int `json:"plan_cache_hits"`
}

type topkResponse struct {
	Results []wireResult `json:"results"`
	Stats   *wireStats   `json:"stats,omitempty"`
}

type batchResponse struct {
	Results [][]wireResult `json:"results"`
}

type insertResponse struct {
	ID int `json:"id"`
}

type removeResponse struct {
	ID      int  `json:"id"`
	Removed bool `json:"removed"`
}

type swapResponse struct {
	Swapped bool `json:"swapped"`
	Points  int  `json:"points"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// parseRole maps a wire role name to the engine's Role. Both the long names
// and the one-letter forms cmd/sdquery uses are accepted, case-insensitively.
func parseRole(s string) (sdquery.Role, error) {
	switch strings.ToLower(s) {
	case "attractive", "a":
		return sdquery.Attractive, nil
	case "repulsive", "r":
		return sdquery.Repulsive, nil
	case "ignored", "i":
		return sdquery.Ignored, nil
	}
	return 0, fmt.Errorf("role %q: use attractive/a, repulsive/r, or ignored/i", s)
}

// decodeQuery parses and validates one wire query against the serving
// index's dimensionality. Validation here is deliberately complete — k,
// lengths, role names, weight domain, at least one active dimension — so a
// malformed request gets its own 400 before it reaches the engine or takes
// an admission slot (the engine re-validates). This function is the fuzz
// target FuzzDecodeQuery.
func decodeQuery(data []byte, dims int) (sdquery.Query, bool, error) {
	var wq wireQuery
	if err := strictDecode(data, &wq); err != nil {
		return sdquery.Query{}, false, fmt.Errorf("decode query: %w", err)
	}
	q, err := wq.toQuery(dims)
	return q, wq.Stats, err
}

// strictDecode decodes exactly one JSON value with unknown fields rejected;
// trailing non-whitespace data (a concatenated second body, a framing bug)
// fails instead of being silently dropped.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON body")
	}
	return nil
}

// toQuery validates and converts a decoded wire query.
func (wq *wireQuery) toQuery(dims int) (sdquery.Query, error) {
	var q sdquery.Query
	if wq.K < 1 {
		return q, fmt.Errorf("k must be ≥ 1, got %d", wq.K)
	}
	if len(wq.Point) != dims {
		return q, fmt.Errorf("point has %d dims, index has %d", len(wq.Point), dims)
	}
	if len(wq.Roles) != dims {
		return q, fmt.Errorf("%d roles for %d dims", len(wq.Roles), dims)
	}
	roles := make([]sdquery.Role, dims)
	active := 0
	for i, s := range wq.Roles {
		r, err := parseRole(s)
		if err != nil {
			return q, fmt.Errorf("dimension %d: %w", i, err)
		}
		roles[i] = r
		if r != sdquery.Ignored {
			active++
		}
	}
	if active == 0 {
		return q, fmt.Errorf("no attractive or repulsive dimensions")
	}
	for i, v := range wq.Point {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return q, fmt.Errorf("dimension %d of the point is %v", i, v)
		}
	}
	weights := wq.Weights
	if weights == nil {
		weights = make([]float64, dims)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != dims {
		return q, fmt.Errorf("%d weights for %d dims", len(weights), dims)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return q, fmt.Errorf("dimension %d has invalid weight %v", i, w)
		}
	}
	return sdquery.Query{Point: wq.Point, K: wq.K, Roles: roles, Weights: weights}, nil
}

// wireResults converts engine results to the wire shape.
func wireResults(res []sdquery.Result) []wireResult {
	out := make([]wireResult, len(res))
	for i, r := range res {
		out[i] = wireResult{ID: r.ID, Score: r.Score}
	}
	return out
}

func wireQueryStats(st sdquery.QueryStats) *wireStats {
	return &wireStats{
		Subproblems:   st.Subproblems,
		Segments:      st.Segments,
		Fetched:       st.Fetched,
		Scored:        st.Scored,
		Rounds:        st.Rounds,
		PlanCacheHits: st.PlanCacheHits,
	}
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return data, nil
}

// marshalBody encodes v into exactly the bytes writeJSON puts on the wire —
// the JSON document plus its trailing newline. The result cache stores
// these bytes verbatim, which is what makes a cache hit trivially
// byte-identical to a freshly computed response.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// writeRawJSON writes a pre-marshaled body (from marshalBody, possibly via
// the result cache).
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSON encodes v with a status code. Encoding into a buffer first keeps
// a marshal failure from emitting a half-written 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	writeRawJSON(w, status, body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
