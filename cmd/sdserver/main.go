// Command sdserver serves SD-Queries over HTTP: the production front end of
// the engine (package serve), with a hot-query result cache, backpressure,
// and zero-downtime index swaps.
//
// Serve a CSV dataset (roles as one letter per column — a/r/i):
//
//	sdserver -addr :8080 -data points.csv -roles rrraaa
//
// Serve a persisted index (cmd/sdquery -save, or a previous sdserver's
// swap source) with no rebuild:
//
//	sdserver -addr :8080 -index points.sdx
//
// Query it:
//
//	curl -s localhost:8080/v1/topk -d '{"point":[0.1,0.2,0.3,0.4,0.5,0.6],
//	    "k":5,"roles":["r","r","r","a","a","a"]}'
//
// Swap the serving index live (queries keep flowing; no request observes a
// torn index):
//
//	curl -s localhost:8080/v1/admin/swap -d '{"path":"tomorrow.sdx"}'
//
// Serve durably: every insert/delete is group-committed to a
// write-ahead log before its 200, and a restart pointed at the same
// directory recovers every acknowledged write (torn tails included):
//
//	sdserver -addr :8080 -data points.csv -roles rrraaa -wal-dir /var/lib/sd
//	sdserver -addr :8080 -wal-dir /var/lib/sd   # later: recover, no CSV
//
// Serve as a read replica of another sdserver — bootstrap from the leader's
// snapshot, tail its WAL live, answer reads from the local copy, and refuse
// writes with a leader hint (the leader needs -wal-dir; replication streams
// ride the WAL):
//
//	sdserver -addr :8081 -follow http://leader:8080
//
// On SIGINT/SIGTERM the server drains gracefully: /healthz flips to 503 so
// load balancers stop routing, in-flight requests finish (bounded by
// -drain-timeout), then the WAL is synced and sealed and the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
	"repro/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		path    = flag.String("data", "", "CSV file of points (required unless -index)")
		header  = flag.Bool("header", false, "CSV has a header row")
		rolesF  = flag.String("roles", "", "one letter per column: a/r/i (required unless -index)")
		indexF  = flag.String("index", "", "serve a persisted index from this file instead of building from CSV")
		workers = flag.Int("workers", 0, "worker-pool size (≤ 0 selects GOMAXPROCS)")

		walDir   = flag.String("wal-dir", "", "write-ahead-log directory: recover the durable index living there, or (with -data) create one and log every write")
		syncF    = flag.String("sync", "always", "WAL fsync policy: always (fsync before each 200), interval (timer), never (rotation/shutdown only)")
		syncIntF = flag.Duration("sync-interval", 100*time.Millisecond, "fsync cadence under -sync interval")

		queue   = flag.Int("queue", 1024, "concurrent /v1/topk engine calls (beyond it, requests answer 429)")
		timeout = flag.Duration("timeout", 0, "per-request deadline enforced mid-query (0 disables)")
		drainT  = flag.Duration("drain-timeout", 15*time.Second, "maximum graceful-drain wait on SIGTERM")

		cache    = flag.Bool("cache", true, "hot-query result cache with heavy-hitter admission")
		cacheCap = flag.Int("cache-capacity", 1024, "maximum resident cached answers")

		follow     = flag.String("follow", "", "run as a read replica of this leader URL (excludes -data/-index/-wal-dir)")
		followInt  = flag.Duration("follow-interval", 200*time.Millisecond, "replication pull cadence under -follow")
		promoteDir = flag.String("promote-wal-dir", "", "directory where this node opens its own write-ahead log if a router promotes it to leader (one fresh subdirectory per promotion)")
	)
	flag.Parse()

	opts := []serve.Option{
		serve.WithPromotionWALDir(*promoteDir),
		serve.WithQueueDepth(*queue),
		serve.WithRequestTimeout(*timeout),
		serve.WithResultCache(*cache),
		serve.WithCacheCapacity(*cacheCap),
		serve.WithLoadOptions(sdquery.WithWorkers(*workers)),
	}
	var srv *serve.Server
	if *follow != "" {
		if *path != "" || *indexF != "" || *walDir != "" {
			fatal(fmt.Errorf("-follow excludes -data, -index, and -wal-dir: a replica's only data source is its leader"))
		}
		var err error
		srv, err = serve.NewFollower(*follow, append(opts, serve.WithFollowInterval(*followInt))...)
		if err != nil {
			fatal(fmt.Errorf("follow %s: %w", *follow, err))
		}
	} else {
		sync, err := parseSync(*syncF)
		if err != nil {
			fatal(err)
		}
		idx, err := buildIndex(*path, *header, *rolesF, *indexF, *workers,
			*walDir, sync, *syncIntF)
		if err != nil {
			fatal(err)
		}
		srv = serve.New(idx, opts...)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	if *follow != "" {
		fmt.Fprintf(os.Stderr, "sdserver: following %s, serving %d points on %s\n",
			*follow, srv.Index().Len(), *addr)
	} else {
		fmt.Fprintf(os.Stderr, "sdserver: serving %d points on %s\n", srv.Index().Len(), *addr)
	}

	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintf(os.Stderr, "sdserver: draining (up to %s)\n", *drainT)
		dctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		// Shutdown already force-synced the WAL; Close flushes the group-commit
		// queue and seals the log files so the next Open replays a clean tail.
		if cl, ok := srv.Index().(interface{ Close() }); ok {
			cl.Close()
		}
		fmt.Fprintln(os.Stderr, "sdserver: drained")
	}
}

func parseSync(s string) (sdquery.SyncPolicy, error) {
	switch s {
	case "always":
		return sdquery.SyncAlways, nil
	case "interval":
		return sdquery.SyncInterval, nil
	case "never":
		return sdquery.SyncNever, nil
	}
	return 0, fmt.Errorf("-sync %q: use always, interval, or never", s)
}

// buildIndex constructs the serving index from a CSV, a persisted file, or —
// when -wal-dir is set — a durable directory: recovered if it already holds a
// MANIFEST, created from the CSV otherwise.
func buildIndex(path string, header bool, rolesF, indexF string, workers int,
	walDir string, sync sdquery.SyncPolicy, syncInt time.Duration) (serve.Index, error) {
	if walDir != "" {
		if indexF != "" {
			return nil, fmt.Errorf("-wal-dir and -index are mutually exclusive (a durable directory is its own persistence)")
		}
		if _, err := os.Stat(walDir + "/MANIFEST"); err == nil {
			fmt.Fprintf(os.Stderr, "sdserver: recovering durable index from %s\n", walDir)
			return sdquery.OpenSDIndex(walDir,
				sdquery.WithWorkers(workers),
				sdquery.WithSyncPolicy(sync), sdquery.WithSyncInterval(syncInt))
		}
	}
	if indexF != "" {
		f, err := os.Open(indexF)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sdquery.LoadSDIndex(f, sdquery.WithWorkers(workers))
	}
	if path == "" || rolesF == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := dataset.ReadCSV(f, header)
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("no data rows in %s", path)
	}
	roles := make([]sdquery.Role, len(rolesF))
	for i, c := range strings.ToLower(rolesF) {
		switch c {
		case 'a':
			roles[i] = sdquery.Attractive
		case 'r':
			roles[i] = sdquery.Repulsive
		case 'i':
			roles[i] = sdquery.Ignored
		default:
			return nil, fmt.Errorf("role %q: use a, r, or i", c)
		}
	}
	sdOpts := []sdquery.SDOption{sdquery.WithWorkers(workers)}
	if walDir != "" {
		sdOpts = append(sdOpts, sdquery.WithWAL(walDir),
			sdquery.WithSyncPolicy(sync), sdquery.WithSyncInterval(syncInt))
	}
	return sdquery.NewSDIndex(data, roles, sdOpts...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdserver:", err)
	os.Exit(1)
}
