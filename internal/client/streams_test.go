package client

import (
	"context"
	"errors"
	"math"
	"net/http"
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
		Smooth:      fda.Options{Dims: []int{8}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{},
		Detector:    iforest.New(iforest.Options{Trees: 20, Seed: 3}),
		Standardize: true,
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
	mux := http.NewServeMux()
	(&stream.API{Manager: mgr}).Register(mux)
	ts := httptest.NewServer(mux)
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
// scores bitwise equal to the batch path, the watch sees every append
// and ends with the terminal event on delete, and a deleted stream
// answers the not_found envelope.
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

	// Watch in the background from the first append on.
	first, err := c.StreamAppend(ctx, "rt", "ecg", curvePoints(s, 0, 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Score == nil || first.Points != 5 {
		t.Fatalf("first append: %+v", first)
	}
	type watchOut struct {
		events []stream.ScoreEvent
		final  *stream.ScoreEvent
		err    error
	}
	watched := make(chan watchOut, 1)
	// The watch answers its first event as soon as it subscribes; wait
	// for it, or the delete below can land before the watch connects.
	subscribed := make(chan struct{})
	go func() {
		var out watchOut
		out.final, out.err = c.StreamWatch(ctx, "rt", func(ev stream.ScoreEvent) error {
			if len(out.events) == 0 {
				close(subscribed)
			}
			out.events = append(out.events, ev)
			return nil
		})
		watched <- out
	}()
	select {
	case <-subscribed:
	case out := <-watched:
		t.Fatalf("watch ended before its first event: %+v", out)
	}

	lastTo := first.Score.GridTo
	for at := 5; at < n; at += 5 {
		end := at + 5
		if end > n {
			end = n
		}
		res, err := c.StreamAppend(ctx, "rt", "ecg", curvePoints(s, at, end), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score.GridTo < lastTo {
			t.Fatalf("observed sub-domain shrank: %d -> %d", lastTo, res.Score.GridTo)
		}
		lastTo = res.Score.GridTo
	}
	ev, err := c.StreamScore(ctx, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coverage != 1 || math.Float64bits(ev.Score) != math.Float64bits(want) {
		t.Fatalf("completed stream event %+v, want batch score %v", ev, want)
	}

	if err := c.StreamDelete(ctx, "rt"); err != nil {
		t.Fatal(err)
	}
	out := <-watched
	if out.err != nil {
		t.Fatalf("watch: %v", out.err)
	}
	if out.final == nil || !out.final.Final {
		t.Fatalf("watch must end with the terminal event, got %+v", out.final)
	}
	if len(out.events) == 0 {
		t.Fatal("watch saw no events before the terminal one")
	}
	for i := 1; i < len(out.events); i++ {
		if out.events[i].GridTo < out.events[i-1].GridTo {
			t.Fatalf("watch event %d narrowed the window: %+v", i, out.events[i])
		}
	}

	_, err = c.StreamScore(ctx, "rt")
	var ae *httpapi.APIError
	if !errors.As(err, &ae) || ae.Code != httpapi.CodeNotFound {
		t.Fatalf("score after delete = %v, want not_found envelope", err)
	}
}
