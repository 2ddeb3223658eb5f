// Package metrics is the serving tiers' Prometheus registry. Each family
// is declared once, as a counter, gauge or histogram with fixed label
// keys, and one renderer writes the text exposition format, so the
// format and the naming policy live here and nowhere else. Counters and
// histograms are observed; gauges, and counters another component
// already keeps, are read from their owner at scrape time.
//
// Registration panics on a name outside the registry's prefix, an
// invalid family or label name, a second family of the same name, a
// counter without the _total suffix or another kind with it, a name
// ending in a suffix only the renderer writes (_bucket, _sum, _count),
// and a reserved (le, quantile) or repeated label key; observing with the wrong
// number of label values panics too. Each is a wiring bug, caught the
// first time the code runs instead of on a dashboard.
//
// A registered family prints its # HELP and # TYPE lines on every
// scrape, even with no series; an unlabelled family prints its one
// series from the start.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds the families of one exposition page. It is safe for
// concurrent use.
type Registry struct {
	prefix   string
	mu       sync.Mutex
	families []*family // sorted by name
}

// NewRegistry returns an empty registry whose family names must all
// start with prefix.
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix}
}

// family is one declared metric. Observed families keep their series
// under mu; scrape-time families build theirs with read on every scrape.
type family struct {
	name, help, kind string
	labels           []string
	bounds           []float64 // histogram upper bounds; +Inf is implicit
	read             func() []*series

	mu     sync.Mutex
	series map[string]*series
}

// series is one label combination; which fields are live depends on the
// family's kind.
type series struct {
	values  []string // label values, in key order
	n       uint64   // counter value; observations of a histogram
	g       int      // gauge value
	sum     float64  // histogram: sum of the non-negative observations
	buckets []uint64 // histogram: observations per bucket, not cumulative
}

// Counter is a family of monotonically increasing integer series.
type Counter struct{ f *family }

// Histogram is a family of bucketed float observations.
type Histogram struct{ f *family }

// Counter registers a counter family; name must end in _total.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	return Counter{r.register(name, help, "counter", labels, nil, nil)}
}

// Histogram registers a histogram family with ascending bucket upper
// bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) Histogram {
	return Histogram{r.register(name, help, "histogram", labels, bounds, nil)}
}

// CounterFunc registers an unlabelled counter whose value fn returns at
// scrape time. Like every scrape-time source, fn runs with no lock held.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", nil, nil, func() []*series { return []*series{{n: fn()}} })
}

// GaugeFunc registers an unlabelled gauge whose value fn returns at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int) {
	r.register(name, help, "gauge", nil, nil, func() []*series { return []*series{{g: fn()}} })
}

// InfoFunc registers a gauge family with one label key, read at scrape
// time: one series of value 1 per label value fn returns.
func (r *Registry) InfoFunc(name, help, label string, fn func() []string) {
	r.register(name, help, "gauge", []string{label}, nil, func() []*series {
		var out []*series
		for _, v := range fn() {
			out = append(out, &series{values: []string{v}, g: 1})
		}
		return out
	})
}

// Inc adds one to the series with the given label values.
func (c Counter) Inc(values ...string) { c.Add(1, values...) }

// Add adds n to the series with the given label values.
func (c Counter) Add(n uint64, values ...string) {
	c.f.update(values, func(s *series) { s.n += n })
}

// Observe records v in the series with the given label values. Every
// observation is counted; only non-negative ones enter the sum, so
// neither a NaN nor a clock stepping backwards corrupts it.
func (h Histogram) Observe(v float64, values ...string) {
	i := sort.SearchFloat64s(h.f.bounds, v) // NaN lands past every bound
	h.f.update(values, func(s *series) {
		s.n++
		if v >= 0 {
			s.sum += v
		}
		if i < len(s.buckets) {
			s.buckets[i]++
		}
	})
}

func (r *Registry) register(name, help, kind string, labels []string, bounds []float64, read func() []*series) *family {
	bad := ""
	switch {
	case !strings.HasPrefix(name, r.prefix):
		bad = "lacks the registry prefix " + r.prefix
	case !metricName.MatchString(name):
		bad = "is not a valid metric name"
	case kind == "counter" && !strings.HasSuffix(name, "_total"):
		bad = "is a counter and must end in _total"
	case kind != "counter" && strings.HasSuffix(name, "_total"):
		bad = "is a " + kind + " and must not end in _total, which promises a counter"
	case strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count"):
		bad = "ends in a suffix only the renderer writes"
	}
	for i, l := range labels {
		if !labelName.MatchString(l) || strings.HasPrefix(l, "__") || l == "le" || l == "quantile" || slices.Contains(labels[:i], l) {
			bad = fmt.Sprintf("has an invalid, reserved or repeated label key %q", l)
		}
	}
	if bad != "" {
		panic("metrics: family " + name + " " + bad)
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds, read: read, series: make(map[string]*series)}
	if read == nil && len(labels) == 0 {
		f.get(nil) // an unlabelled family shows its one series from the start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := slices.BinarySearchFunc(r.families, name, func(f *family, name string) int { return strings.Compare(f.name, name) })
	if dup {
		panic("metrics: family " + name + " registered twice")
	}
	r.families = slices.Insert(r.families, i, f)
	return f
}

// update applies fn to the series for values under the family lock.
func (f *family) update(values []string, fn func(*series)) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %s takes label values for %v, got %d", f.name, f.labels, len(values)))
	}
	f.mu.Lock()
	fn(f.get(values))
	f.mu.Unlock()
}

// get returns the series for values, creating it on first use; the
// caller holds f.mu or owns f. The key is length-prefixed so ("a,b",
// "c") and ("a", "b,c") never collide, and indexing with string(key)
// does not allocate.
func (f *family) get(values []string) *series {
	var buf [128]byte
	key := buf[:0]
	for _, v := range values {
		key = append(append(strconv.AppendInt(key, int64(len(v)), 10), ':'), v...)
	}
	s := f.series[string(key)]
	if s == nil {
		s = &series{values: append([]string(nil), values...), buckets: make([]uint64, len(f.bounds))}
		f.series[string(key)] = s
	}
	return s
}

// WritePrometheus renders every family, sorted by name, in the
// Prometheus text format. The page is built in memory, each family under
// its own lock, and reaches w only after every lock is released: w is
// typically a scraper's connection, and a slow scraper must not convoy
// the request path.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := slices.Clone(r.families)
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range fams {
		b.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.kind + "\n")
		if f.read != nil {
			f.render(&b, f.read())
			continue
		}
		f.mu.Lock()
		list := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			list = append(list, s)
		}
		f.render(&b, list)
		f.mu.Unlock()
	}
	w.Write(b.Bytes())
}

// render writes list sorted by label values. Only here are the _bucket,
// _sum and _count suffixes written.
func (f *family) render(b *bytes.Buffer, list []*series) {
	slices.SortFunc(list, func(a, c *series) int { return slices.Compare(a.values, c.values) })
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range list {
		pairs := make([]string, len(s.values))
		for i, v := range s.values {
			pairs[i] = f.labels[i] + "=" + strconv.Quote(v)
		}
		switch f.kind {
		case "counter":
			line(b, f.name, pairs, u(s.n))
		case "gauge":
			line(b, f.name, pairs, strconv.Itoa(s.g))
		case "histogram":
			var cum uint64
			for i, ub := range f.bounds {
				cum += s.buckets[i]
				line(b, f.name+"_bucket", append(pairs, `le="`+g(ub)+`"`), u(cum))
			}
			line(b, f.name+"_bucket", append(pairs, `le="+Inf"`), u(s.n))
			line(b, f.name+"_sum", pairs, g(s.sum))
			line(b, f.name+"_count", pairs, u(s.n))
		}
	}
}

// line writes one series: name, label pairs in braces (none for an
// unlabelled series) and value.
func line(b *bytes.Buffer, name string, pairs []string, value string) {
	b.WriteString(name)
	if len(pairs) > 0 {
		b.WriteString("{" + strings.Join(pairs, ",") + "}")
	}
	b.WriteString(" " + value + "\n")
}
