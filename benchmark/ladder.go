package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/fda"
	"repro/internal/wire"
)

// ladderStep is one operation of the ladder replay: the in-process work
// (core) and the same work as an HTTP request. A step without core is
// untimed housekeeping, such as deleting a finished stream.
type ladderStep struct {
	core   func() error
	method string
	path   string
	ctype  string
	body   []byte
}

// ladderSteps builds n operations of the workload for one rung. The
// mixed-grid replay is its miss path: every step carries a grid no rung
// has seen, so each rung pays the cache insert.
func (lg *loadgen) ladderSteps(rung, n int, pipe *core.Pipeline) []ladderStep {
	var steps []ladderStep
	score := "/v1/score?model=" + modelName
	switch lg.wl.shape {
	case shapeScore:
		for j := 0; j < n; j++ {
			k := curveKey{curve: j % corpusSize}
			if lg.wl.jitter {
				k.jitter = uint64(phaseLadder+rung)<<32 | uint64(j)
			}
			s := lg.in.sample(k)
			steps = append(steps, ladderStep{
				core:   func() error { _, err := pipe.ScoreOne(s); return err },
				method: http.MethodPost, path: score, ctype: "application/json", body: scoreBody(s),
			})
		}
	case shapeJob:
		for c := 0; c < n; c++ {
			off := (c / jobBodies * jobChunk) % jobCurves
			ds := lg.in.dataset(lg.in.jobs[c%jobBodies][off : off+jobChunk])
			steps = append(steps, ladderStep{
				core:   func() error { _, err := pipe.Score(ds); return err },
				method: http.MethodPost, path: score, ctype: wire.ContentType,
				body: wire.EncodeRequest(wire.Request{Dataset: ds}),
			})
		}
	case shapeAppend:
		for c := 0; c < n; c++ {
			s := lg.in.corpus[c%corpusSize]
			id := url.PathEscape(fmt.Sprintf("ladder%d-%d", rung, c))
			var inc *fda.Incremental
			for off := 0; off < len(s.Times); off += appendPoints {
				pts := points(s, off, min(off+appendPoints, len(s.Times)))
				steps = append(steps, ladderStep{
					core: func() error {
						if off == 0 {
							var err error
							if inc, err = pipe.NewIncremental(len(s.Values)); err != nil {
								return err
							}
						}
						for _, pt := range pts {
							if err := inc.Append(pt.T, pt.V); err != nil {
								return err
							}
						}
						fit, err := inc.Fit()
						if err != nil {
							return err
						}
						lo, hi, _ := inc.Span()
						_, _, _, err = pipe.ScorePartialFit(fit, lo, hi)
						return err
					},
					method: http.MethodPost, path: "/v1/streams/" + id + "/append?score=1", ctype: "application/json", body: appendBody(pts),
				})
			}
			steps = append(steps, ladderStep{method: http.MethodDelete, path: "/v1/streams/" + id})
		}
	}
	return steps
}

// exchange sends one step as an HTTP request: in memory through h when
// it is set, otherwise over the network to base.
func (lg *loadgen) exchange(h http.Handler, base string, st ladderStep) error {
	var code int
	if h != nil {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(st.method, st.path, bytes.NewReader(st.body))
		req.Header.Set("Content-Type", st.ctype)
		h.ServeHTTP(rec, req)
		code = rec.Code
	} else {
		req, err := http.NewRequest(st.method, base+st.path, bytes.NewReader(st.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", st.ctype)
		resp, err := lg.client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", st.method, st.path, code)
	}
	return nil
}

// ladder replays the workload serially through each rung — the pipeline
// in process, the replica handler in memory, one replica over loopback,
// the gate over the three-replica fleet — and returns the p50 µs per
// operation of each rung plus the gaps between neighbouring rungs, which
// are the costs of the serve layer, the network hop and the gate. The
// first three rungs run on lr, a fourth replica outside the fleet loaded
// from the same model file.
func (lg *loadgen) ladder(lr *replica, n int) ([]metric, error) {
	m, _ := lr.reg.Get(modelName)
	pipe := m.Pipeline()
	// The in-process rung has no handler and no base URL.
	rungs := []struct {
		name string
		h    http.Handler
		base string
	}{
		{"core.score_us", nil, ""},
		{"serve.handler_us", lr.handler, ""},
		{"serve.loopback_us", nil, lr.url},
		{"gate.fleet_us", nil, lg.fl.gateURL},
	}
	var out []metric
	for r, rg := range rungs {
		run := func(st ladderStep) error { return lg.exchange(rg.h, rg.base, st) }
		if r == 0 {
			run = func(st ladderStep) error { return st.core() }
		}
		var lat []float64
		for _, st := range lg.ladderSteps(r, n, pipe) {
			if st.core == nil {
				if r > 0 {
					if err := run(st); err != nil {
						return nil, err
					}
				}
				continue
			}
			start := time.Now()
			if err := run(st); err != nil {
				return nil, fmt.Errorf("%s: %w", rg.name, err)
			}
			lat = append(lat, micros(time.Since(start)))
		}
		out = append(out, metric{rg.name, median(lat), "us", len(lat)})
	}
	gap := func(name string, upper, lower metric) metric {
		return metric{name, upper.value - lower.value, "us", upper.n}
	}
	return append(out,
		gap("serve.self_us", out[1], out[0]),
		gap("net.hop_us", out[2], out[1]),
		gap("gate.self_us", out[3], out[2]),
	), nil
}

// directs times the public calls the pipeline is built from, one at a
// time on n of the workload's curves: smoothing on a benchmark-owned
// BasisCache, the incremental refit, the curvature map, the detector,
// and the wire codec on one operation's body.
func (lg *loadgen) directs(pipe *core.Pipeline, n int) ([]metric, error) {
	samples := make([]fda.Sample, n)
	for i := range samples {
		k := curveKey{curve: i % corpusSize}
		if lg.wl.jitter {
			k.jitter = uint64(phaseDirect)<<32 | uint64(i)
		}
		samples[i] = lg.in.sample(k)
	}
	var out []metric
	timing := func(name string, lat []float64) {
		out = append(out, metric{name, median(lat), "us", len(lat)})
	}

	opt := pipe.Smooth
	opt.Lo, opt.Hi = pipe.Domain()
	opt.Parallel = 1
	opt.Cache = fda.NewBasisCache()
	fits := make([]*fda.Fit, n)
	lat := make([]float64, n)
	for i, s := range samples {
		start := time.Now()
		fit, err := fda.FitSample(s, opt)
		lat[i] = micros(time.Since(start))
		if err != nil {
			return nil, err
		}
		fits[i] = fit
	}
	timing("fda.smooth_us", lat)
	st := opt.Cache.Stats()
	out = append(out, metric{"fda.cache_hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio", n})

	grid := pipe.Grid()
	feats := make([][]float64, n)
	for i, fit := range fits {
		start := time.Now()
		feat, err := pipe.Mapping.Map(fit, grid)
		lat[i] = micros(time.Since(start))
		if err != nil {
			return nil, err
		}
		feats[i] = feat
	}
	timing("geometry.map_us", lat)

	// The detector sees z-scored features in the pipeline; z-score with
	// this batch's own statistics so trees are walked to typical depths.
	standardize(feats)
	for i, row := range feats {
		start := time.Now()
		_, err := pipe.Detector.ScoreBatch([][]float64{row})
		lat[i] = micros(time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	timing("iforest.score_us", lat)

	var incLat []float64
	for _, s := range samples[:min(n, 8)] {
		inc, err := pipe.NewIncremental(len(s.Values))
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(s.Times); off += appendPoints {
			for _, pt := range points(s, off, min(off+appendPoints, len(s.Times))) {
				if err := inc.Append(pt.T, pt.V); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			_, err := inc.Fit()
			incLat = append(incLat, micros(time.Since(start)))
			if err != nil {
				return nil, err
			}
		}
	}
	timing("fda.incremental_fit_us", incLat)

	ds := fda.Dataset{Samples: samples[:1]}
	if lg.wl.shape == shapeJob {
		ds = lg.in.dataset(lg.in.jobs[0][:jobChunk])
	}
	var enc, dec []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		frame := wire.EncodeRequest(wire.Request{Dataset: ds})
		enc = append(enc, micros(time.Since(start)))
		start = time.Now()
		_, err := wire.DecodeRequest(frame)
		dec = append(dec, micros(time.Since(start)))
		if err != nil {
			return nil, err
		}
	}
	timing("wire.encode_us", enc)
	timing("wire.decode_us", dec)
	return out, nil
}

// standardize z-scores the columns of x in place.
func standardize(x [][]float64) {
	if len(x) == 0 {
		return
	}
	for j := range x[0] {
		var sum, sq float64
		for _, row := range x {
			sum += row[j]
		}
		mean := sum / float64(len(x))
		for _, row := range x {
			sq += (row[j] - mean) * (row[j] - mean)
		}
		sd := math.Sqrt(sq / float64(len(x)))
		if sd < 1e-12 {
			sd = 1
		}
		for _, row := range x {
			row[j] = (row[j] - mean) / sd
		}
	}
}
