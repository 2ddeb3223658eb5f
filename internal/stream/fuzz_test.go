package stream_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/stream"
	"repro/internal/wire"
)

// fuzzHarness is built once per process: a fitted model behind the full
// HTTP surface, plus a control stream whose batch score is known, so
// every fuzz input can prove the hostile body neither crashed the
// handler nor corrupted unrelated per-stream state.
type fuzzHarness struct {
	srv       *httptest.Server
	pipe      *core.Pipeline
	ctrlBody  []byte  // valid full-curve append for the control stream
	ctrlScore float64 // batch score the control stream must keep matching
}

var (
	fuzzOnce sync.Once
	fuzzH    *fuzzHarness
)

func fuzzSetup(tb testing.TB) *fuzzHarness {
	fuzzOnce.Do(func() {
		p, d := fitTestModel(tb)
		opt := stream.Options{Resolve: func(name string) (stream.Model, bool) {
			if name != "ecg" {
				return nil, false
			}
			return p, true
		}}
		m, err := stream.NewManager(opt)
		if err != nil {
			tb.Fatal(err)
		}
		s := d.Samples[0]
		want, err := p.ScoreOne(s)
		if err != nil {
			tb.Fatal(err)
		}
		fuzzH = &fuzzHarness{
			srv:       httptest.NewServer(mount(&stream.API{Manager: m}, 1<<16)),
			pipe:      p,
			ctrlBody:  appendBody(tb, "ecg", samplePoints(s, 0, len(s.Times))),
			ctrlScore: want,
		}
	})
	return fuzzH
}

// FuzzStreamAppend throws hostile append bodies — NaN/Inf times and
// values, out-of-order timestamps, oversized point lists, truncated and
// garbage JSON, nulls and repeated fields — at the live HTTP surface.
// Every response must be a sane status (2xx for valid data, enveloped
// 4xx otherwise, 400 bad_request for a body under the cap that
// wire.DecodeAppend refuses; never 5xx, never a hang), and a control
// stream scored after every input must keep producing its known
// batch-equal score: hostile appends to one stream id can never corrupt
// the tier's shared state.
func FuzzStreamAppend(f *testing.F) {
	valid, _ := json.Marshal(map[string]any{"model": "ecg", "points": []stream.Point{
		{T: 0.1, V: []float64{1, 2}}, {T: 0.9, V: []float64{3, 4}}}})
	f.Add(valid)
	f.Add([]byte(`{"model":"ecg","points":[{"t":NaN,"v":[1,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":1e309,"v":[1,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"v":[1e999,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.9,"v":[1,2]},{"t":0.1,"v":[3,4]}]}`)) // out-of-order: valid
	f.Add([]byte(`{"model":"ecg","points":[{"t":-5,"v":[1,2]}]}`))                      // outside domain
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"v":[1]}]}`))                       // wrong arity
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"v":[1,2,3,4,5]}]}`))
	f.Add([]byte(`{"model":"nope","points":[{"t":0.5,"v":[1,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[]}`))
	f.Add([]byte(`{"model":"ecg"`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"v":[1,2]}]} }garbage{`)) // junk after the value
	f.Add([]byte(`{"unknown":1,"model":"ecg","points":[{"t":0.5,"v":[1,2]}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte(`{"t":0.5,"v":[1,2]},`), 512))
	// Bodies encoding/json read as something else: t = 0 for a null or
	// missing t, 0 for a null value, the last of a repeated t.
	f.Add([]byte(`{"model":"ecg","points":[{"t":null,"v":[1,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"v":[1,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"v":[null,2]}]}`))
	f.Add([]byte(`{"model":"ecg","points":[{"t":0.5,"t":0.7,"v":[1,2]}]}`))

	h := fuzzSetup(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		_, decodeErr := wire.DecodeAppend(body)
		resp, err := http.Post(h.srv.URL+"/v1/streams/fuzz-target/append", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		dec := json.NewDecoder(resp.Body)
		envelopeErr := dec.Decode(&envelope)
		resp.Body.Close()
		switch {
		case decodeErr != nil && resp.StatusCode != http.StatusRequestEntityTooLarge &&
			(resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != httpapi.CodeBadRequest):
			t.Fatalf("undecodable append (%v) answered %d %q, want 400 %s", decodeErr, resp.StatusCode, envelope.Error.Code, httpapi.CodeBadRequest)
		case resp.StatusCode == http.StatusOK:
			// Valid data; the ack decodes as JSON (envelope struct is a
			// superset-tolerant decode of it).
			if envelopeErr != nil {
				t.Fatalf("200 with undecodable body: %v", envelopeErr)
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			if envelopeErr != nil || envelope.Error.Code == "" {
				t.Fatalf("status %d without a v1 envelope (decode: %v)", resp.StatusCode, envelopeErr)
			}
		default:
			t.Fatalf("hostile append answered %d; the tier must never 5xx on input", resp.StatusCode)
		}

		// State-corruption oracle: a pristine control stream appended and
		// scored after the hostile input must still match the batch score
		// bitwise. A fresh id per input keeps the oracle independent of
		// whatever the fuzzer managed to append to fuzz-target.
		ctrl, err := http.Post(h.srv.URL+"/v1/streams/fuzz-control/append?score=1", "application/json", bytes.NewReader(h.ctrlBody))
		if err != nil {
			t.Fatalf("control append: %v", err)
		}
		var ack stream.AppendResult
		err = json.NewDecoder(ctrl.Body).Decode(&ack)
		ctrl.Body.Close()
		if ctrl.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("control append broke: %d (%v)", ctrl.StatusCode, err)
		}
		if ack.Score == nil || math.Float64bits(ack.Score.Score) != math.Float64bits(h.ctrlScore) {
			t.Fatalf("control stream corrupted: %+v want score %v", ack.Score, h.ctrlScore)
		}
	})
}
