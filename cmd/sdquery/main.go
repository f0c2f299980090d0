// Command sdquery answers ad-hoc SD-Queries over a CSV file or a persisted
// index.
//
// Roles are given as one letter per column: a (attractive), r (repulsive),
// i (ignored). Weights default to 1 for every active column.
//
//	sdquery -data points.csv -roles rrraaa -point 0.1,0.2,0.3,0.4,0.5,0.6 -k 5
//	sdquery -data points.csv -header -roles ra -point 10,250 -weights 1,0.5 -engine scan
//
// An index built from CSV can be persisted with -save and served later with
// -index, skipping both the CSV parse and the index build entirely (roles
// come from the file):
//
//	sdquery -data points.csv -roles rrraaa -save points.sdx
//	sdquery -index points.sdx -point 0.1,0.2,0.3,0.4,0.5,0.6 -k 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	sdquery "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		path    = flag.String("data", "", "CSV file of points (required unless -index)")
		header  = flag.Bool("header", false, "CSV has a header row")
		rolesF  = flag.String("roles", "", "one letter per column: a/r/i (required unless -index)")
		pointF  = flag.String("point", "", "query point, comma-separated (required unless only -save)")
		weightF = flag.String("weights", "", "weights, comma-separated (default all 1)")
		k       = flag.Int("k", 5, "answer size")
		engine  = flag.String("engine", "sd", "sd | scan | ta | brs | pe")
		saveF   = flag.String("save", "", "persist the built index (engine sd) to this file")
		indexF  = flag.String("index", "", "serve a persisted index from this file instead of building from CSV")
	)
	flag.Parse()
	if *indexF == "" && (*path == "" || *rolesF == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *pointF == "" && (*indexF != "" || *saveF == "") {
		flag.Usage()
		os.Exit(2)
	}

	var (
		eng   sdquery.Engine
		data  [][]float64
		roles []sdquery.Role
		err   error
	)
	if *indexF != "" {
		// Serve the persisted index: no CSV parse, no index build. Roles
		// come from the file; -data/-roles/-engine/-save are ignored.
		f, err := os.Open(*indexF)
		if err != nil {
			fatal(err)
		}
		eng, err = sdquery.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		roles = loadedRoles(eng)
	} else {
		f, err := os.Open(*path)
		if err != nil {
			fatal(err)
		}
		data, err = dataset.ReadCSV(f, *header)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(data) == 0 {
			fatal(fmt.Errorf("no data rows in %s", *path))
		}
		roles = make([]sdquery.Role, len(*rolesF))
		for i, c := range strings.ToLower(*rolesF) {
			switch c {
			case 'a':
				roles[i] = sdquery.Attractive
			case 'r':
				roles[i] = sdquery.Repulsive
			case 'i':
				roles[i] = sdquery.Ignored
			default:
				fatal(fmt.Errorf("role %q: use a, r, or i", c))
			}
		}
		switch *engine {
		case "sd":
			eng, err = sdquery.NewSDIndex(data, roles)
		case "scan":
			eng, err = sdquery.NewScan(data)
		case "ta":
			eng, err = sdquery.NewTA(data)
		case "brs":
			eng, err = sdquery.NewBRS(data, 0)
		case "pe":
			eng, err = sdquery.NewPE(data)
		default:
			err = fmt.Errorf("unknown engine %q", *engine)
		}
		if err != nil {
			fatal(err)
		}
		if *saveF != "" {
			if err := saveIndex(eng, *saveF); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sdquery: saved %d-point index to %s\n", eng.Len(), *saveF)
			if *pointF == "" {
				return
			}
		}
	}

	point, err := parseFloats(*pointF)
	if err != nil {
		fatal(err)
	}
	weights := make([]float64, len(roles))
	for i := range weights {
		weights[i] = 1
	}
	if *weightF != "" {
		if weights, err = parseFloats(*weightF); err != nil {
			fatal(err)
		}
	}

	res, err := eng.TopK(sdquery.Query{Point: point, K: *k, Roles: roles, Weights: weights})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rank  row      score\n")
	for i, r := range res {
		if data != nil {
			fmt.Printf("%-4d  %-7d  %+.6g    %v\n", i+1, r.ID, r.Score, data[r.ID])
		} else {
			fmt.Printf("%-4d  %-7d  %+.6g\n", i+1, r.ID, r.Score)
		}
	}
}

// saveIndex persists an index that supports it.
func saveIndex(eng sdquery.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	saveErr := fmt.Errorf("-save supports the sd engine only")
	if e, ok := eng.(*sdquery.SDIndex); ok {
		saveErr = e.Save(f)
	}
	if err := f.Close(); saveErr == nil {
		saveErr = err
	}
	return saveErr
}

// loadedRoles extracts the build-time roles a persisted index carries.
func loadedRoles(eng sdquery.Engine) []sdquery.Role {
	if e, ok := eng.(*sdquery.SDIndex); ok {
		return e.Roles()
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdquery:", err)
	os.Exit(1)
}
