package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// scoreOf is the fake model: a sample's score is its first value
// doubled — deterministic and distinct per sample, so order mixups and
// duplicates are visible.
func scoreOf(s fda.Sample) float64 { return s.Values[0][0] * 2 }

type runnerFunc func(ctx context.Context, model string, c jobs.Chunk) ([]float64, error)

func (f runnerFunc) ScoreChunk(ctx context.Context, model string, c jobs.Chunk) ([]float64, error) {
	return f(ctx, model, c)
}

// testBackend is an httptest server speaking the v1 surface: /v1/score
// synchronously and the jobs API through a local manager whose runner
// scores chunks with scoreOf.
func testBackend(t *testing.T) *httptest.Server {
	t.Helper()
	run := runnerFunc(func(_ context.Context, _ string, c jobs.Chunk) ([]float64, error) {
		out := make([]float64, len(c.Dataset.Samples))
		for i, s := range c.Dataset.Samples {
			out[i] = scoreOf(s)
		}
		return out, nil
	})
	mgr, err := jobs.NewManager(jobs.Options{Runner: run, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	api := &jobs.API{Manager: mgr, CheckModel: func(name string) error {
		if name != "m" {
			return errors.New("unknown")
		}
		return nil
	}}
	table := httpapi.NewTable(1<<20, nil, nil, nil)
	api.Mount(table)
	table.Handle(httpapi.Score, func(r *http.Request, raw []byte) httpapi.Reply {
		if r.URL.Query().Get("model") != "m" {
			return httpapi.Errorf(http.StatusNotFound, "unknown model")
		}
		body, err := wire.DecodeBody(r.Header.Get("Content-Type"), raw)
		if err != nil {
			return httpapi.Errorf(http.StatusBadRequest, "decode: %v", err)
		}
		ds := body.Dataset
		scores := make([]float64, len(ds.Samples))
		for i, s := range ds.Samples {
			scores[i] = scoreOf(s)
		}
		return httpapi.JSON(map[string]any{"scores": scores})
	})
	ts := httptest.NewServer(table.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testDataset builds n one-dimensional samples whose scores are all
// distinct, with values chosen off the float grid so bitwise mismatch
// detection has teeth.
func testDataset(n int) fda.Dataset {
	var ds fda.Dataset
	for i := 0; i < n; i++ {
		v := math.Float64frombits(0x3ff0000000000000 + uint64(i)*0x1001)
		ds.Samples = append(ds.Samples, fda.Sample{
			Times:  []float64{0, 1, 2},
			Values: [][]float64{{v, v + 1, v + 2}},
		})
	}
	return ds
}

func TestScoreBothCodecs(t *testing.T) {
	ts := testBackend(t)
	ds := testDataset(10)
	var got [2][]float64
	for i, codec := range []string{"wire", "json"} {
		c := New(Options{BaseURL: ts.URL, Codec: codec})
		res, err := c.Score(context.Background(), "m", ds, 0)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		got[i] = res.Scores
	}
	for i := range got[0] {
		if math.Float64bits(got[0][i]) != math.Float64bits(got[1][i]) {
			t.Fatalf("sample %d: wire %v != json %v", i, got[0][i], got[1][i])
		}
	}
}

func TestScoreEnvelopeError(t *testing.T) {
	ts := testBackend(t)
	c := New(Options{BaseURL: ts.URL})
	_, err := c.Score(context.Background(), "nope", testDataset(2), 0)
	var ae *httpapi.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *httpapi.APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != httpapi.CodeNotFound {
		t.Fatalf("status=%d code=%q", ae.Status, ae.Code)
	}
}

func TestJobCollectMatchesSync(t *testing.T) {
	ts := testBackend(t)
	ds := testDataset(50)
	for _, codec := range []string{"wire", "json"} {
		c := New(Options{BaseURL: ts.URL, Codec: codec, Backoff: 5 * time.Millisecond})
		sync, err := c.Score(context.Background(), "m", ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		job, err := c.SubmitJob(context.Background(), "m", ds, 7)
		if err != nil {
			t.Fatal(err)
		}
		if job.Samples != 50 || job.Chunk != 7 {
			t.Fatalf("handle: %+v", job)
		}
		scores, end, err := job.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if end.State != jobs.StateDone || len(scores) != 50 {
			t.Fatalf("end=%+v n=%d", end, len(scores))
		}
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(sync.Scores[i]) {
				t.Fatalf("%s sample %d: job %v != sync %v", codec, i, scores[i], sync.Scores[i])
			}
		}
	}
}

func TestJobUnknownModel(t *testing.T) {
	ts := testBackend(t)
	c := New(Options{BaseURL: ts.URL})
	_, err := c.SubmitJob(context.Background(), "nope", testDataset(2), 0)
	var ae *httpapi.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}

// TestStreamResume: a cursor-positioned Stream resumes exactly where it
// left off — the runs arriving after a restart start at the cursor.
func TestStreamResume(t *testing.T) {
	ts := testBackend(t)
	c := New(Options{BaseURL: ts.URL, Backoff: 5 * time.Millisecond})
	ds := testDataset(30)
	job, err := c.SubmitJob(context.Background(), "m", ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Absorb everything once to know the job is done, then re-stream from
	// a mid-job cursor as a resuming client would.
	if _, _, err := job.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := -1
	got := 0
	end, err := job.Stream(context.Background(), 12, func(start int, run []float64) error {
		if first < 0 {
			first = start
		}
		got += len(run)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 12 || got != 18 || !end.Done {
		t.Fatalf("first=%d got=%d end=%+v", first, got, end)
	}
}
