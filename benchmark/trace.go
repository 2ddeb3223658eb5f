package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fda"
	"repro/internal/geometry"
)

// spanKind names the layer a span was recorded at, outermost first.
type spanKind uint8

const (
	kindClient spanKind = iota
	kindGate
	kindReplica
	kindMap
	kindDetect
)

var kindNames = [...]string{"client", "gate", "replica", "map", "detect"}

// parentKinds lists, per kind, the kinds a span of that kind may nest
// in, nearest first. A replica leg of a bulk job can run between the
// submit and the results request, so it falls back to the client span.
var parentKinds = [...][]spanKind{
	kindClient:  nil,
	kindGate:    {kindClient},
	kindReplica: {kindGate, kindClient},
	kindMap:     {kindReplica},
	kindDetect:  {kindReplica},
}

// span is one recorded interval. owner is the replica index for
// replica, map and detect spans (-1 otherwise): a map span can only
// nest in a leg served by the same replica.
type span struct {
	kind       spanKind
	owner      int
	start, end int64
}

// recorder keeps spans in memory while on is set. All spans come from
// outside the packages under test: the benchmark's client calls, wrappers
// around the gate's and each replica's handler, and decorators set on
// the exported Mapping and Detector fields of each loaded pipeline.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(k spanKind, owner int, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: k, owner: owner, start: start, end: end})
	r.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// wrap records a span around every /v1/ request h serves while tracing
// is on; health probes and /metrics scrapes are not spans of a request.
func (r *recorder) wrap(h http.Handler, k spanKind, owner int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(k, owner, start)
	})
}

// decorate sets pass-through decorators on the pipeline's Mapping and
// Detector. Call it before the pipeline serves its first request.
func (r *recorder) decorate(p *core.Pipeline, owner int) {
	p.Mapping = tracedMapping{Mapping: p.Mapping, rec: r, owner: owner}
	p.Detector = tracedDetector{Detector: p.Detector, rec: r, owner: owner}
}

type tracedMapping struct {
	geometry.Mapping
	rec   *recorder
	owner int
}

func (m tracedMapping) Map(fit *fda.Fit, ts []float64) ([]float64, error) {
	if !m.rec.on.Load() {
		return m.Mapping.Map(fit, ts)
	}
	start := m.rec.now()
	out, err := m.Mapping.Map(fit, ts)
	m.rec.add(kindMap, m.owner, start)
	return out, err
}

type tracedDetector struct {
	core.Detector
	rec   *recorder
	owner int
}

func (d tracedDetector) ScoreBatch(x [][]float64) ([]float64, error) {
	if !d.rec.on.Load() {
		return d.Detector.ScoreBatch(x)
	}
	start := d.rec.now()
	out, err := d.Detector.ScoreBatch(x)
	d.rec.add(kindDetect, d.owner, start)
	return out, err
}

// spanLine is one line of the span file. IDs start at 1; parent 0 marks
// a root, trace_id 0 a span that lies in no client span (a hedge leg
// that outlived its request, say).
type spanLine struct {
	TraceID int    `json:"trace_id"`
	SpanID  int    `json:"span_id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// link orders spans by start and gives each its parent: the latest-
// starting span of the nearest parent kind (and, below the replica
// tier, the same replica) whose interval contains it. With one sender
// every request's spans nest in its client span by time alone.
func link(spans []span) []spanLine {
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	type key struct {
		kind  spanKind
		owner int
	}
	byKey := map[key][]int{}
	for i, s := range spans {
		byKey[key{s.kind, s.owner}] = append(byKey[key{s.kind, s.owner}], i)
		if s.owner >= 0 {
			byKey[key{s.kind, -1}] = append(byKey[key{s.kind, -1}], i)
		}
	}
	lines := make([]spanLine, len(spans))
	for i, s := range spans {
		lines[i] = spanLine{SpanID: i + 1, Name: kindNames[s.kind], StartNs: s.start, EndNs: s.end}
		owner := -1
		if s.kind == kindMap || s.kind == kindDetect {
			owner = s.owner
		}
		for _, pk := range parentKinds[s.kind] {
			if p := container(spans, byKey[key{pk, owner}], s); p >= 0 {
				lines[i].Parent = p + 1
				break
			}
		}
	}
	for i := range lines {
		root := i
		for lines[root].Parent != 0 {
			root = lines[root].Parent - 1
		}
		if spans[root].kind == kindClient {
			lines[i].TraceID = root + 1
		}
	}
	return lines
}

// container returns the index of the latest-starting span among cands
// (indexes into spans, in start order) that contains s, or -1.
func container(spans []span, cands []int, s span) int {
	n := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].start > s.start })
	for i, steps := n-1, 0; i >= 0 && steps < 64; i, steps = i-1, steps+1 {
		if spans[cands[i]].end >= s.end {
			return cands[i]
		}
	}
	return -1
}

// traceStats is what the span tree says about one traced phase: per
// request (client span), the median self time summed over each tier's
// spans, and the gate's legs per request.
type traceStats struct {
	requests      int
	selfUs        [len(kindNames)]float64
	legsPerGate   float64
	negativeSelfs int
}

// analyze computes self times by interval subtraction: a span's self
// time is its duration minus the union of its children's intervals.
func analyze(lines []spanLine) traceStats {
	children := make([][]int, len(lines))
	for i, l := range lines {
		if l.Parent != 0 {
			children[l.Parent-1] = append(children[l.Parent-1], i)
		}
	}
	kindOf := map[string]spanKind{}
	for k, name := range kindNames {
		kindOf[name] = spanKind(k)
	}
	perTrace := map[int]*[len(kindNames)]float64{}
	var st traceStats
	var gates, legs int
	for i, l := range lines {
		self := float64(l.EndNs-l.StartNs) - covered(lines, children[i])
		if self < 0 {
			st.negativeSelfs++
		}
		k := kindOf[l.Name]
		if k == kindGate {
			gates++
		}
		if k == kindReplica && l.Parent != 0 && lines[l.Parent-1].Name == kindNames[kindGate] {
			legs++
		}
		if l.TraceID == 0 {
			continue
		}
		sums := perTrace[l.TraceID]
		if sums == nil {
			sums = new([len(kindNames)]float64)
			perTrace[l.TraceID] = sums
		}
		sums[k] += self / 1e3
	}
	st.requests = len(perTrace)
	for k := range kindNames {
		vals := make([]float64, 0, len(perTrace))
		for _, sums := range perTrace {
			vals = append(vals, sums[k])
		}
		st.selfUs[k] = median(vals)
	}
	if gates > 0 {
		st.legsPerGate = float64(legs) / float64(gates)
	}
	return st
}

// covered is the length of the union of the children's intervals.
func covered(lines []spanLine, kids []int) float64 {
	iv := make([][2]int64, len(kids))
	for j, c := range kids {
		iv[j] = [2]int64{lines[c].StartNs, lines[c].EndNs}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curStart, curEnd int64
	for j, in := range iv {
		if j == 0 || in[0] > curEnd {
			total += curEnd - curStart
			curStart, curEnd = in[0], in[1]
		} else if in[1] > curEnd {
			curEnd = in[1]
		}
	}
	total += curEnd - curStart
	return float64(total)
}

// writeSpans writes the span file as JSON Lines.
func writeSpans(path string, lines []spanLine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
