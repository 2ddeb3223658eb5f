package client

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/httpapi"
	"repro/internal/iforest"
	"repro/internal/stream"
)

// streamBackend boots the real streaming surface over a small fitted
// pipeline, returning the server base URL, the pipeline and a dataset.
func streamBackend(t *testing.T) (*httptest.Server, *core.Pipeline, fda.Dataset) {
	t.Helper()
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 20, Points: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		Smooth:       fda.Options{Dims: []int{8}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 20, Seed: 3}),
		Standardize:  true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	mgr, err := stream.NewManager(stream.Options{Resolve: func(name string) (stream.Model, bool) {
		if name != "ecg" {
			return nil, false
		}
		return p, true
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	table := httpapi.NewTable(1<<20, nil, nil, nil)
	(&stream.API{Manager: mgr}).Mount(table)
	ts := httptest.NewServer(table.Handler())
	t.Cleanup(ts.Close)
	return ts, p, d
}

// curvePoints converts a sample slice to stream points.
func curvePoints(s fda.Sample, from, to int) []stream.Point {
	pts := make([]stream.Point, 0, to-from)
	for j := from; j < to; j++ {
		v := make([]float64, len(s.Values))
		for k := range s.Values {
			v[k] = s.Values[k][j]
		}
		pts = append(pts, stream.Point{T: s.Times[j], V: v})
	}
	return pts
}

// TestStreamClientRoundTrip drives a stream to completion through the
// client: appends widen the early-warning window, the completed stream
// scores bitwise equal to the batch path, and a deleted stream answers
// the not_found envelope.
func TestStreamClientRoundTrip(t *testing.T) {
	ts, p, d := streamBackend(t)
	c := New(Options{BaseURL: ts.URL})
	ctx := context.Background()
	s := d.Samples[0]
	n := len(s.Times)
	want, err := p.ScoreOne(s)
	if err != nil {
		t.Fatal(err)
	}

	first, err := c.StreamAppend(ctx, "rt", "ecg", curvePoints(s, 0, 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Score == nil || first.Points != 5 {
		t.Fatalf("first append: %+v", first)
	}
	last := first.Score
	for at := 5; at < n; at += 5 {
		end := at + 5
		if end > n {
			end = n
		}
		res, err := c.StreamAppend(ctx, "rt", "ecg", curvePoints(s, at, end), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score.GridTo < last.GridTo {
			t.Fatalf("observed sub-domain shrank: %d -> %d", last.GridTo, res.Score.GridTo)
		}
		last = res.Score
	}
	if last.Coverage != 1 || math.Float64bits(last.Score) != math.Float64bits(want) {
		t.Fatalf("completed stream event %+v, want batch score %v", last, want)
	}

	if err := c.StreamDelete(ctx, "rt"); err != nil {
		t.Fatal(err)
	}
	err = c.StreamDelete(ctx, "rt")
	var ae *httpapi.APIError
	if !errors.As(err, &ae) || ae.Code != httpapi.CodeNotFound {
		t.Fatalf("delete after delete = %v, want not_found envelope", err)
	}
}
