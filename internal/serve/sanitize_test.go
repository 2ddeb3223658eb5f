package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fda"
	"repro/internal/stream"
)

func TestSanitizeDataset(t *testing.T) {
	good := fda.Sample{Times: []float64{0, 0.5, 1}, Values: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	one := func(s fda.Sample) fda.Dataset { return fda.Dataset{Samples: []fda.Sample{s}} }
	if verr := sanitizeDataset(one(good), 10, 10); verr != nil {
		t.Fatalf("good sample rejected: %v", verr)
	}
	cases := map[string]fda.Dataset{
		"empty": {},
		"NaN value": one(fda.Sample{Times: []float64{0, 1},
			Values: [][]float64{{1, math.NaN()}, {1, 2}}}),
		"Inf value": one(fda.Sample{Times: []float64{0, 1},
			Values: [][]float64{{1, math.Inf(-1)}, {1, 2}}}),
		"NaN time": one(fda.Sample{Times: []float64{0, math.NaN()},
			Values: [][]float64{{1, 2}, {1, 2}}}),
		"ragged grid": one(fda.Sample{Times: []float64{0, 0.5, 1},
			Values: [][]float64{{1, 2}, {1, 2, 3}}}),
		"empty grid":       one(fda.Sample{}),
		"too many samples": {Samples: make([]fda.Sample, 11)},
		"too many points": one(fda.Sample{Times: make([]float64, 11),
			Values: [][]float64{make([]float64, 11)}}),
	}
	for name, ds := range cases {
		verr := sanitizeDataset(ds, 10, 10)
		if verr == nil {
			t.Fatalf("%s: sanitize accepted bad dataset", name)
		}
		if verr.Error() == "" {
			t.Fatalf("%s: empty reason", name)
		}
	}
	// The underlying fda cause stays reachable through errors.Is.
	verr := sanitizeDataset(cases["NaN value"], 10, 10)
	if !errors.Is(verr, fda.ErrData) {
		t.Fatalf("NaN value: Unwrap lost fda.ErrData: %v", verr)
	}
}

// limitedStack builds a server with tight body/sample limits around a
// real model so the rejection paths can be exercised over HTTP. A zero
// limit keeps the server default.
func limitedStack(t *testing.T, maxBody int64, maxSamples, maxPoints int) (*httptest.Server, fda.Dataset) {
	t.Helper()
	path, _, ds := saveModel(t, t.TempDir(), "model.json", 11)
	reg := NewRegistry()
	if err := reg.Load("ecg", path); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(PoolOptions{Workers: 1})
	t.Cleanup(pool.Close)
	srv, err := NewServer(Config{
		Registry:     reg,
		Pool:         pool,
		Timeout:      10 * time.Second,
		MaxBodyBytes: maxBody,
		MaxSamples:   maxSamples,
		MaxPoints:    maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, ds
}

func TestServerBodyTooLarge413(t *testing.T) {
	// Pick a cap that admits a one-sample body but not a four-sample one.
	_, _, probeDS := saveModel(t, t.TempDir(), "probe.json", 11)
	small := scoreBody(t, probeDS, []int{0}, 0)
	big := scoreBody(t, probeDS, []int{0, 1, 2, 3}, 0)
	maxBody := int64(len(small) + 16)
	if int64(len(big)) <= maxBody {
		t.Fatalf("big body %d bytes does not exceed cap %d", len(big), maxBody)
	}
	ts, ds := limitedStack(t, maxBody, 0, 0)
	resp, out := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0, 1, 2, 3}, 0))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("413 Content-Type = %q, want JSON error body", ct)
	}
	if !strings.Contains(string(out), "exceeds") {
		t.Fatalf("413 body %s", out)
	}
	// A request within the cap still scores.
	resp2, out2 := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0}, 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small request = %d, body %s", resp2.StatusCode, out2)
	}
}

func TestServerRequestLimits400(t *testing.T) {
	ts, ds := limitedStack(t, 0, 2, 0)
	resp, out := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, ds, []int{0, 1, 2}, 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-sample status = %d, want 400 (body %s)", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "per-request limit of 2") {
		t.Fatalf("400 body %s", out)
	}
	tsPts, dsPts := limitedStack(t, 0, 0, 5)
	resp2, out2 := postScore(t, tsPts.URL+"/v1/score?model=ecg", scoreBody(t, dsPts, []int{0}, 0))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-points status = %d, want 400 (body %s)", resp2.StatusCode, out2)
	}
	if !strings.Contains(string(out2), "limit 5") {
		t.Fatalf("400 body %s", out2)
	}
}

// TestServerDefaultPointLimit400: with default limits a curve one point
// past stream.MaxPoints is rejected before any smoothing runs.
func TestServerDefaultPointLimit400(t *testing.T) {
	ts, ds := limitedStack(t, 0, 0, 0)
	n := stream.MaxPoints + 1
	lo, hi := ds.Domain()
	big := fda.Sample{Times: make([]float64, n), Values: make([][]float64, len(ds.Samples[0].Values))}
	for k := range big.Values {
		big.Values[k] = make([]float64, n)
	}
	for j := range big.Times {
		big.Times[j] = lo + (hi-lo)*float64(j)/float64(n-1)
	}
	resp, out := postScore(t, ts.URL+"/v1/score?model=ecg", scoreBody(t, fda.Dataset{Samples: []fda.Sample{big}}, []int{0}, 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-point curve: status = %d, want 400 (body %s)", n, resp.StatusCode, out)
	}
}
