package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// WriteTo renders every metric in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families are
// sorted by metric name, series within a family by their canonical
// label signature (keys pre-sorted), and histogram buckets by bound —
// so the format is golden-testable. Nil registries write nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	// Snapshot the family/series structure under the lock; the atomic
	// metric reads below happen lock-free afterwards.
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	for _, f := range fams {
		cw.line("# TYPE " + f.name + " " + f.kind.String())
		r.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		srs := make([]*series, len(sigs))
		for i, sig := range sigs {
			srs[i] = f.series[sig]
		}
		r.mu.Unlock()
		for _, s := range srs {
			switch f.kind {
			case kindCounter:
				cw.line(f.name + s.labels + " " + formatValue(s.c.Value()))
			case kindGauge:
				cw.line(f.name + s.labels + " " + formatValue(s.g.Value()))
			case kindHistogram:
				writeHistogram(cw, f.name, s)
			}
		}
	}
	if err := bw.Flush(); cw.err == nil {
		cw.err = err
	}
	return cw.n, cw.err
}

// writeHistogram emits cumulative le-buckets, sum and count.
func writeHistogram(cw *countingWriter, name string, s *series) {
	counts := s.h.BucketCounts()
	bounds := s.h.Buckets()
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		cw.line(name + "_bucket" + mergeLabel(s.labels, "le", formatValue(b)) + " " +
			strconv.FormatUint(cum, 10))
	}
	cum += counts[len(counts)-1]
	cw.line(name + "_bucket" + mergeLabel(s.labels, "le", "+Inf") + " " +
		strconv.FormatUint(cum, 10))
	cw.line(name + "_sum" + s.labels + " " + formatValue(s.h.Sum()))
	cw.line(name + "_count" + s.labels + " " + strconv.FormatUint(s.h.Count(), 10))
}

// mergeLabel appends one pair to a rendered signature. The le label
// sorts after every lowercase key we use, and appending keeps the
// output stable either way.
func mergeLabel(sig, k, v string) string {
	pair := k + `="` + labelEscaper.Replace(v) + `"`
	if sig == "" {
		return "{" + pair + "}"
	}
	return sig[:len(sig)-1] + "," + pair + "}"
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) line(s string) {
	if cw.err != nil {
		return
	}
	n, err := io.WriteString(cw.w, s+"\n")
	cw.n += int64(n)
	cw.err = err
}

// Handler serves the exposition over HTTP — mount at GET /metrics.
// A nil registry serves an empty (valid) exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
