package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sdquery "repro"
	"repro/internal/dataset"
	"repro/internal/faultfs"
)

// durableTestIndex builds a WAL-backed pooled index over fs (nil = real
// filesystem at dir).
func durableTestIndex(t *testing.T, fs faultfs.FS, dir string, n int, seed int64, opts ...sdquery.SDOption) *sdquery.SDIndex {
	t.Helper()
	data := dataset.Generate(dataset.Uniform, n, len(testRoles()), seed)
	all := append([]sdquery.SDOption{
		sdquery.WithWorkers(2), sdquery.WithWAL(dir), sdquery.WithMemtableSize(32),
	}, opts...)
	if fs != nil {
		all = append(all, sdquery.WithWALFS(fs))
	}
	idx, err := sdquery.NewSDIndex(data, testRoles(), all...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func insertPoint(t *testing.T, ts *httptest.Server, row []float64) (int, int) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"point": row})
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.Client(), ts.URL+"/v1/insert", body)
	if status != http.StatusOK {
		return status, -1
	}
	var resp struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("insert response %q: %v", out, err)
	}
	return status, resp.ID
}

func deletePoint(t *testing.T, ts *httptest.Server, id int) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestWALDurabilitySemantics pins the write-path durability contract: a 200
// on /v1/insert or DELETE means the mutation committed per the sync policy,
// and a failed log degrades the server to read-only 503s — stickily, with
// /healthz, /metrics, and /statz all reporting the state — while reads keep
// answering.
func TestWALDurabilitySemantics(t *testing.T) {
	fs := faultfs.NewMem()
	idx := durableTestIndex(t, fs, "idx", 500, 31)
	defer idx.Close()
	srv := New(idx)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy: insert commits (group commit fsyncs before the 200).
	row := make([]float64, len(testRoles()))
	fsyncsBefore := fs.Fsyncs()
	status, id := insertPoint(t, ts, row)
	if status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	if id != 500 {
		t.Fatalf("insert id %d, want 500", id)
	}
	if fs.Fsyncs() == fsyncsBefore {
		t.Fatal("200 answered without an fsync under SyncAlways")
	}
	if status, _ := deletePoint(t, ts, id); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}

	// Degrade: fsync fails, the triggering write answers 503 and was not
	// acknowledged.
	fs.SetSyncErr(errors.New("disk gone"))
	if status, _ := insertPoint(t, ts, row); status != http.StatusServiceUnavailable {
		t.Fatalf("insert under fsync failure: status %d, want 503", status)
	}
	// Sticky: later writes fail fast (the pre-check path), reads still work.
	if status, _ := insertPoint(t, ts, row); status != http.StatusServiceUnavailable {
		t.Fatalf("second insert: status %d, want 503", status)
	}
	if status, body := deletePoint(t, ts, 0); status != http.StatusServiceUnavailable {
		t.Fatalf("delete while degraded: status %d (%s), want 503", status, body)
	}
	q := testQueries(1, 32)[0]
	if status, body := post(t, ts.Client(), ts.URL+"/v1/topk", queryBody(t, q)); status != http.StatusOK {
		t.Fatalf("read while degraded: status %d: %s", status, body)
	}

	// Health and telemetry reflect the degradation.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb bytes.Buffer
	hb.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(hb.String(), "degraded") {
		t.Fatalf("healthz while degraded: %d %q", resp.StatusCode, hb.String())
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mb.String(), "sdserver_wal_degraded 1") {
		t.Fatal("metrics do not report sdserver_wal_degraded 1")
	}
	if !strings.Contains(mb.String(), "sdserver_wal_appends_total") {
		t.Fatal("metrics do not expose sdserver_wal_appends_total")
	}
	st := srv.Statz()
	if !st.WALEnabled || !st.WALDegraded || st.WALError == "" {
		t.Fatalf("statz does not reflect degradation: %+v", st)
	}
	if st.WALAppends == 0 || st.WALFsyncs == 0 {
		t.Fatalf("statz wal counters empty: %+v", st)
	}
}

// TestWALShutdownSyncs: Shutdown force-fsyncs the index's log, so a server
// running SyncNever survives power loss after a clean drain.
func TestWALShutdownSyncs(t *testing.T) {
	fs := faultfs.NewMem()
	idx := durableTestIndex(t, fs, "idx", 100, 33,
		sdquery.WithSyncPolicy(sdquery.SyncNever))
	defer idx.Close()
	srv := New(idx)
	ts := httptest.NewServer(srv.Handler())

	row := make([]float64, len(testRoles()))
	status, id := insertPoint(t, ts, row)
	if status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Power loss after the drain: only fsynced bytes survive. The drained
	// log must still hold the acknowledged insert.
	re, err := sdquery.OpenSDIndex("idx", sdquery.WithWALFS(fs.PowerFailClone()))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 101 {
		t.Fatalf("after drain + power loss: Len = %d, want 101", re.Len())
	}
	if !re.Remove(id) {
		t.Fatalf("acknowledged insert %d lost across drain + power loss", id)
	}
}

// TestWALCrashRecoveryE2E is the end-to-end crash drill: mutate over HTTP
// with the WAL on the real filesystem, hard-drop the process state (no
// drain, no close, no checkpoint), reopen the directory, and require every
// acknowledged mutation present and every answer byte-identical to a fresh
// oracle index holding exactly the acknowledged state.
func TestWALCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir() + "/idx"
	data := dataset.Generate(dataset.Uniform, 300, len(testRoles()), 41)
	idx, err := sdquery.NewSDIndex(data, testRoles(),
		sdquery.WithWorkers(2), sdquery.WithWAL(dir), sdquery.WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	ts := httptest.NewServer(srv.Handler())

	rows := append([][]float64(nil), data...)
	dead := make([]bool, len(rows))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 80; i++ {
		if rng.Intn(4) == 0 {
			victim := rng.Intn(len(rows))
			status, body := deletePoint(t, ts, victim)
			if status != http.StatusOK {
				t.Fatalf("delete %d: status %d: %s", victim, status, body)
			}
			var dr struct {
				ID      int  `json:"id"`
				Removed bool `json:"removed"`
			}
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatal(err)
			}
			if dr.Removed != !dead[victim] {
				t.Fatalf("delete %d: removed=%v with oracle dead=%v", victim, dr.Removed, dead[victim])
			}
			dead[victim] = true
			continue
		}
		row := make([]float64, len(testRoles()))
		for d := range row {
			row[d] = rng.Float64()
		}
		status, id := insertPoint(t, ts, row)
		if status != http.StatusOK {
			t.Fatalf("insert %d: status %d", i, status)
		}
		if id != len(rows) {
			t.Fatalf("insert id %d, want %d", id, len(rows))
		}
		rows = append(rows, row)
		dead = append(dead, false)
	}

	// Hard drop: tear down the HTTP front end but neither drain nor close
	// the index — its WAL handle is abandoned exactly as a killed process
	// would leave it. SyncAlways acknowledged each 200 only after its group
	// commit, so recovery owes every one of them.
	ts.Close()
	srv.Close()

	re, err := sdquery.OpenSDIndex(dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()

	// Oracle: a fresh, log-less index holding exactly the acknowledged
	// state.
	oracle, err := sdquery.NewSDIndex(rows, testRoles(), sdquery.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for id, d := range dead {
		if d {
			oracle.Remove(id)
		}
	}
	if re.Len() != oracle.Len() {
		t.Fatalf("recovered Len = %d, oracle %d", re.Len(), oracle.Len())
	}
	for qi, q := range testQueries(12, 43) {
		got, err := re.TopK(q)
		if err != nil {
			t.Fatalf("query %d on recovered index: %v", qi, err)
		}
		want, err := oracle.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, oracle %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: recovered %+v, oracle %+v", qi, i, got[i], want[i])
			}
		}
	}
}
