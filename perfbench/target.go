package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	sdquery "repro"
)

// httpTarget is where a phase sends its operations: the deployment's entry
// point, spoken to in the public wire protocol over loopback TCP.
type httpTarget struct {
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
}

func newHTTPTarget(base string, tr *tracer) *httpTarget {
	return &httpTarget{
		base: base,
		tr:   tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// do sends one request and returns the body of a 200 answer.
func (t *httpTarget) do(op, method, path string, body []byte, qi int) ([]byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var sp *span
	if t.tr != nil {
		sp = t.tr.start(spanRef{}, "client", op, "", qi)
		req.Header.Set(traceHeader, sp.ref().String())
	}
	resp, err := t.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	if sp != nil {
		t.tr.end(sp, err == nil)
	}
	return data, err
}

func (t *httpTarget) topk(qi int, rq readQuery) ([]sdquery.Result, error) {
	data, err := t.do("read", http.MethodPost, "/v1/topk", rq.body, qi)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Results []struct {
			ID    int     `json:"id"`
			Score float64 `json:"score"`
		} `json:"results"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decode topk answer: %w", err)
	}
	if resp.Degraded {
		return nil, fmt.Errorf("degraded answer")
	}
	out := make([]sdquery.Result, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = sdquery.Result{ID: r.ID, Score: r.Score}
	}
	return out, nil
}

func (t *httpTarget) insert(p []float64) (int, error) {
	body := appendFloats([]byte(`{"point":`), p)
	body = append(body, '}')
	data, err := t.do("insert", http.MethodPost, "/v1/insert", body, -1)
	if err != nil {
		return 0, err
	}
	var resp struct {
		ID *int `json:"id"`
	}
	if err := json.Unmarshal(data, &resp); err != nil || resp.ID == nil {
		return 0, fmt.Errorf("decode insert answer %q: %v", data, err)
	}
	return *resp.ID, nil
}

func (t *httpTarget) remove(id int) error {
	data, err := t.do("remove", http.MethodDelete, "/v1/points/"+strconv.Itoa(id), nil, -1)
	if err != nil {
		return err
	}
	var resp struct {
		Removed bool `json:"removed"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decode remove answer %q: %w", data, err)
	}
	if !resp.Removed {
		return fmt.Errorf("remove %d: not removed", id)
	}
	return nil
}
