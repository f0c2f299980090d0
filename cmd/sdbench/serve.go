package main

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/serve"
)

// Serve load workload: spin the HTTP serving layer up in-process, drive it
// with a closed-loop client pool over real TCP connections, and report
// end-to-end request latency (mean/p50/p99) and throughput. This is the
// end-to-end figure the serving layer is accountable for: engine time plus
// HTTP overhead.

// serveClients is the closed-loop client count: enough concurrency to keep
// every core busy on small CI machines without drowning them.
func serveClients() int {
	c := 2 * runtime.GOMAXPROCS(0)
	if c < 8 {
		c = 8
	}
	return c
}

// hotCacheCapacity is the serve/hot workload's result-cache bound:
// deliberately smaller than the query-set size, so the HeavyKeeper
// admission sketch has real work to do — the Zipf head must earn and keep
// its cache slots against the long tail, exactly the production shape the
// cache is built for.
const hotCacheCapacity = 32

// runServeLoad builds the default evaluation workload, serves it, and
// hammers it with serveClients() closed-loop clients for totalOps requests.
// With hot=true it becomes the serve/hot workload: the result cache is
// enabled and clients draw queries from a Zipf distribution instead of
// round-robin, reporting the achieved cache hit rate and the measured
// allocation count of the cache hit path.
func runServeLoad(scale float64, queryCount int, seed int64, totalOps int, hot bool) (workloadJSON, error) {
	var w workloadJSON
	n := int(50_000 * scale)
	if n < 1000 {
		n = 1000
	}
	if queryCount <= 0 {
		queryCount = 64
	}
	const dims, attractive, k = 6, 3, 5
	data := dataset.Generate(dataset.Uniform, n, dims, seed)
	specs, roles := bench.BatchSpecs(dims, attractive, k, queryCount, seed+1)

	idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithWorkers(0))
	if err != nil {
		return w, err
	}
	defer idx.Close()
	srvOpts := []serve.Option{serve.WithQueueDepth(8192)}
	if hot {
		srvOpts = append(srvOpts, serve.WithResultCache(true), serve.WithCacheCapacity(hotCacheCapacity))
	}
	srv := serve.New(idx, srvOpts...)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/topk"

	// Pre-marshal every request body: the harness measures the server, not
	// the client's JSON encoder.
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		names := make([]string, dims)
		for d, r := range sp.Roles {
			names[d] = r.String()
		}
		bodies[i] = []byte(fmt.Sprintf(
			`{"point":%s,"k":%d,"roles":%s,"weights":%s}`,
			jsonFloats(sp.Point), sp.K, jsonStrings(names), jsonFloats(sp.Weights)))
	}

	clients := serveClients()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	doOne := func(body []byte) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		var sink [512]byte
		for {
			if _, err := resp.Body.Read(sink[:]); err != nil {
				break
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("serve load: status %d", resp.StatusCode)
		}
		return time.Since(t0), nil
	}
	// Warm-up: connections, engine pools, plan caches.
	for i := 0; i < clients; i++ {
		if _, err := doOne(bodies[i%len(bodies)]); err != nil {
			return w, err
		}
	}

	perClient := totalOps / clients
	if perClient < 1 {
		perClient = 1
	}
	lats := make([][]int64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Query selection: round-robin for the uncached baseline (every
			// query equally hot — the cache-hostile shape), Zipf for the hot
			// workload (a heavy head over a long tail — the cache-friendly
			// production shape). Per-client seeded generators keep runs
			// reproducible.
			var zipf *mrand.Zipf
			if hot {
				zipf = mrand.NewZipf(mrand.New(mrand.NewSource(seed+int64(c))), 1.3, 1, uint64(len(bodies)-1))
			}
			<-start
			mine := make([]int64, 0, perClient)
			for i := 0; i < perClient; i++ {
				bi := (c*perClient + i) % len(bodies)
				if zipf != nil {
					bi = int(zipf.Uint64())
				}
				d, err := doOne(bodies[bi])
				if err != nil {
					errs[c] = err
					return
				}
				mine = append(mine, d.Nanoseconds())
			}
			lats[c] = mine
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return w, err
		}
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum int64
	for _, l := range all {
		sum += l
	}
	st := srv.Statz()
	w.N, w.Dims, w.K, w.Queries = n, dims, k, queryCount
	w.NsPerOp = sum / int64(len(all))
	w.P50NsPerOp = all[len(all)/2]
	w.P99NsPerOp = all[len(all)*99/100]
	w.AllocsPerOp = -1 // cross-goroutine HTTP path: no per-op attribution
	w.BytesPerOp = -1
	w.QPS = float64(len(all)) / wall.Seconds()
	if hot {
		w.CacheHitRate = st.CacheHitRate
		// The hit path's allocation count IS attributable: ProbeCache runs
		// the exact serving fast path (pooled key buffer, canonical encode,
		// hash, versioned lookup) in-process. Reported through AllocsPerOp so
		// the diff gate's exact zero-alloc rule covers it — the Zipf head is
		// resident after the load, so probing the hottest query measures a
		// hit, and the committed baseline of 0 makes any allocation a
		// regression.
		hottest := sdquery.Query{Point: specs[0].Point, K: specs[0].K, Roles: specs[0].Roles, Weights: specs[0].Weights}
		if !srv.ProbeCache(hottest) {
			return w, fmt.Errorf("serve/hot: Zipf-hottest query not resident in the cache after %d ops (hit rate %.2f)",
				len(all), st.CacheHitRate)
		}
		w.AllocsPerOp = int64(testing.AllocsPerRun(500, func() {
			srv.ProbeCache(hottest)
		}))
	}
	return w, nil
}

// runServeStandalone is the human-facing `sdbench -serve` mode.
func runServeStandalone(scale float64, queryCount int, seed int64) {
	prev := runtime.GOMAXPROCS(0)
	if runtime.NumCPU() > prev {
		runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
	}
	w, err := runServeLoad(scale, queryCount, seed, 4096, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdbench: serve load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("== serve load: n=%d, d=%d, k=%d, %d closed-loop clients, GOMAXPROCS=%d\n",
		w.N, w.Dims, w.K, serveClients(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-22s %12.0f\n", "qps", w.QPS)
	fmt.Printf("%-22s %12.2f\n", "mean latency (ms)", float64(w.NsPerOp)/1e6)
	fmt.Printf("%-22s %12.2f\n", "p50 latency (ms)", float64(w.P50NsPerOp)/1e6)
	fmt.Printf("%-22s %12.2f\n", "p99 latency (ms)", float64(w.P99NsPerOp)/1e6)
}

func jsonFloats(vals []float64) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(']')
	return b.String()
}

func jsonStrings(vals []string) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", v)
	}
	b.WriteByte(']')
	return b.String()
}
