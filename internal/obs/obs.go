// Package obs is the system's observability substrate: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition, and a lightweight
// span API for tracing the paper's four-step pipeline. stdlib only.
//
// The whole API is nil-safe: a nil *Registry hands out nil metric
// handles, and every method on a nil handle is a no-op. Code under
// instrumentation therefore asks for its handles once (at
// construction or at the top of a run) and calls Inc/Add/Observe
// unconditionally — when observability is disabled the hot path
// costs a nil check and allocates nothing.
//
// Metric identity is (name, label pairs). Asking twice for the same
// identity returns the same handle; asking for the same name with a
// different metric kind panics (a programming error, caught by any
// test that touches the path). Exposition output is deterministic:
// families sort by name, series by label signature — see WriteTo.
package obs

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
)

// kind discriminates the metric families a registry holds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every label combination of one metric name.
type family struct {
	name    string
	kind    kind
	buckets []float64          // histogram families only
	series  map[string]*series // key: rendered label signature
}

// series is one (name, labels) time series.
type series struct {
	labels string // rendered `{k="v",...}` signature, "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metrics and completed-span statistics. The zero
// value is not usable; call New. A nil *Registry is the disabled
// (no-op) registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	spanMu sync.Mutex
	spans  map[string]*spanStat
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		families: make(map[string]*family),
		spans:    make(map[string]*spanStat),
	}
}

// labelSignature renders alternating key/value pairs as a canonical
// `{k="v",...}` string, keys sorted so identity and exposition are
// order-independent. Values are escaped per the exposition format.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the exposition format. A
// Replacer is safe for concurrent use, so every lookup shares this one.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// lookup returns (creating if needed) the series for an identity,
// enforcing kind consistency per name.
func (r *Registry) lookup(name string, k kind, buckets []float64, labels []string) *series {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.buckets)
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on
// first use. labels are alternating key/value pairs. Nil registries
// return a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels); nil registries return
// a nil (no-op) handle.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).g
}

// Histogram returns the histogram for (name, labels). buckets are
// ascending upper bounds (a +Inf bucket is implicit); nil means
// DefBuckets. The first registration of a name fixes its buckets;
// later calls reuse them. Nil registries return a nil handle.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, kindHistogram, buckets, labels).h
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}
