package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is how compare mode judges one end-to-end metric: which way is
// better, and the share of the parent's median by which it may worsen
// before it counts as a regression.
type spec struct {
	better string // "lower" or "higher"
	bound  float64
}

// specFor gives the gated metrics BENCHMARK.json's bounds and every
// other timing the widest one, 0.25: on the two-core reference VM their
// run-to-run spreads reach 10–30%. Any rise in fail_ratio is a
// regression.
func specFor(name string) spec {
	switch name {
	case "read_rps":
		return spec{"higher", 0.25}
	case "rss_peak_mb":
		return spec{"lower", 0.15}
	case "fail_ratio":
		return spec{"lower", 0}
	}
	return spec{"lower", 0.25}
}

// compareMain reads two result sets — files, or directories of files,
// holding the standard output of measured runs — and prints, per
// workload and end-to-end metric, each side's median and quartiles, the
// pair wins of the change (pairs are the runs of one seed) and a
// verdict: a gain needs the change to win at least 9 of 10 pairs and a
// median gap wider than the parent's interquartile range; a metric
// whose spread is wider than its bound is unresolved.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare PARENT CHANGE (files or directories of run output)")
	}
	parent, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	change, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	var keys []string
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return errors.New("no workload and metric appears in both result sets")
	}
	fmt.Printf("%-8s %-18s %28s %28s %7s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, k := range keys {
		wl, name, _ := strings.Cut(k, "\x00")
		p, c := parent[k], change[k]
		pv, cv := values(p), values(c)
		pq1, pm, pq3 := quartiles(pv)
		cq1, cm, cq3 := quartiles(cv)
		s := specFor(name)
		wins, pairs := pairWins(p, c, s.better)
		fmt.Printf("%-8s %-18s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %3d/%-3d  %s\n",
			wl, name, pm, pq1, pq3, cm, cq1, cq3, wins, pairs, verdict(s, pv, cv, wins, pairs))
	}
	return nil
}

// loadRecords reads every measured-run record under path, keyed by
// workload and metric, then seed.
func loadRecords(path string) (map[string]map[int64]float64, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]float64{}
	for _, f := range files {
		if err := readRecordFile(f, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readRecordFile(path string, out map[string]map[int64]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			continue
		}
		var r record
		if json.Unmarshal(line, &r) != nil || r.Record != recordSchema || r.Trace {
			continue
		}
		if !r.Correct {
			return fmt.Errorf("%s: %s seed %d failed its checks or was invalid", path, r.Workload, r.Seed)
		}
		for name, m := range r.Metrics {
			k := r.Workload + "\x00" + name
			if out[k] == nil {
				out[k] = map[int64]float64{}
			}
			out[k][r.Seed] = m.Value
		}
	}
	return sc.Err()
}

func values(bySeed map[int64]float64) []float64 {
	out := make([]float64, 0, len(bySeed))
	for _, v := range bySeed {
		out = append(out, v)
	}
	return out
}

// pairWins counts the seeds on which the change beat the parent; ties
// count for neither side.
func pairWins(parent, change map[int64]float64, better string) (wins, pairs int) {
	for seed, p := range parent {
		c, ok := change[seed]
		if !ok {
			continue
		}
		pairs++
		if (better == "lower" && c < p) || (better == "higher" && c > p) {
			wins++
		}
	}
	return wins, pairs
}

func verdict(s spec, pv, cv []float64, wins, pairs int) string {
	pq1, pm, pq3 := quartiles(pv)
	cq1, cm, cq3 := quartiles(cv)
	sign := 1.0 // positive gap = change better
	if s.better == "lower" {
		sign = -1
	}
	gap := sign * (cm - pm)
	if s.bound == 0 { // fail_ratio: any rise is a regression
		if gap < 0 {
			return "worse"
		}
		return "same"
	}
	spread := math.Max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && gap > pq3-pq1:
		return fmt.Sprintf("better by %.1f%%", 100*gap/math.Abs(pm))
	case spread > s.bound && !allBetter(s.better, pv, cv):
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*s.bound)
	case -gap > s.bound*math.Abs(pm):
		return fmt.Sprintf("worse by %.1f%% (bound %.0f%%)", -100*gap/math.Abs(pm), 100*s.bound)
	}
	return fmt.Sprintf("same within bound %.0f%%", 100*s.bound)
}

// allBetter reports whether every change run beat every parent run.
func allBetter(better string, pv, cv []float64) bool {
	pmin, pmax := minMax(pv)
	cmin, cmax := minMax(cv)
	if better == "lower" {
		return cmax < pmin
	}
	return cmin > pmax
}

func minMax(v []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
