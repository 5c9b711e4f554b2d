package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one read of the server's GET /v1/metrics exposition, keyed
// by the series as printed: name plus its rendered label set, e.g.
// `bioenrich_http_request_seconds_sum{endpoint="GET /v1/search"}`.
type scrape map[string]float64

// fetchScrape reads /v1/metrics. The server's own counters are the
// only server-side numbers the benchmark uses; it adds no
// instrumentation of its own to the program.
func fetchScrape(ctx context.Context, c *client) (scrape, error) {
	r, err := c.get(ctx, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	if r.status != 200 {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", r.status)
	}
	return parseScrape(r.body)
}

func parseScrape(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces ("GET /v1/search"); the value is
		// always after the last one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one series (absent series read as 0).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// histMean is the mean of the observations a histogram series gained
// between two scrapes, and how many there were.
func histMean(before, after scrape, name, labels string) (mean float64, n float64) {
	n = delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum"+labels) / n, n
}

// endpointLabel renders the server's per-route label set.
func endpointLabel(route string) string {
	return `{endpoint="` + route + `"}`
}
