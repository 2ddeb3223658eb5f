package wire

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fda"
)

// bodiesEqual compares two decoded bodies field by field, the curves
// bitwise.
func bodiesEqual(a, b Body) bool {
	return a.Model == b.Model && a.Chunk == b.Chunk && a.Explain == b.Explain &&
		datasetsEqual(a.Dataset, b.Dataset)
}

// TestDecodeBodyRules: a JSON body decodes only if one frame could carry
// it, and every failure wraps ErrJSON.
func TestDecodeBodyRules(t *testing.T) {
	accept := []struct{ name, body string }{
		{"trailing whitespace", "{\"samples\":[{\"times\":[0,1],\"values\":[[1,2]]}]} \n\t"},
		{"dataset file with labels", `{"samples":[{"times":[0,1],"values":[[1,2]]}],"labels":[1]}`},
		{"jobs fields", `{"model":"m","chunk":8,"samples":[{"times":[0],"values":[[1],[2]]}]}`},
		{"empty sample", `{"samples":[{"times":[],"values":[]}]}`},
	}
	for _, c := range accept {
		if _, err := DecodeBody("application/json", []byte(c.body)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	reject := []struct{ name, body string }{
		{"trailing bytes", `{"samples":[]} }garbage{`},
		{"second value", `{"samples":[]}{"samples":[]}`},
		{"ragged", `{"samples":[{"times":[0,1,2],"values":[[1,2,3],[4,5]]}]}`},
		{"long column", `{"samples":[{"times":[0],"values":[[1,2]]}]}`},
		{"parameters without points", `{"samples":[{"times":[],"values":[[],[]]}]}`},
		{"negative explain", `{"samples":[],"explain":-1}`},
		{"explain past uint32", `{"samples":[],"explain":4294967296}`},
		{"negative chunk", `{"samples":[],"chunk":-1}`},
		{"not JSON", `{`},
		{"NaN literal", `{"samples":[{"times":[0],"values":[[NaN]]}]}`},
	}
	for _, c := range reject {
		if _, err := DecodeBody("application/json", []byte(c.body)); !errors.Is(err, ErrJSON) {
			t.Errorf("%s: err = %v, want ErrJSON", c.name, err)
		}
	}
	// The Content-Type test ignores parameters; anything else is JSON.
	frame := EncodeRequest(Request{Dataset: fda.Dataset{Samples: []fda.Sample{{Times: []float64{0}, Values: [][]float64{{1}}}}}})
	for _, ct := range []string{ContentType, ContentType + "; charset=binary", " " + ContentType + " "} {
		if !IsFrame(ct) {
			t.Errorf("IsFrame(%q) = false", ct)
		}
		if _, err := DecodeBody(ct, frame); err != nil {
			t.Errorf("DecodeBody(%q, frame): %v", ct, err)
		}
	}
	for _, ct := range []string{"", "application/json", "application/x-mfod-wire-v2", "text/plain; x=" + ContentType} {
		if IsFrame(ct) {
			t.Errorf("IsFrame(%q) = true", ct)
		}
	}
}

// FuzzRequestDecode feeds arbitrary bytes to DecodeBody as a JSON body.
// Either they decode or the decoder fails with ErrJSON; it never
// panics. A body that decodes comes back bitwise through both codecs:
// through its frame (the gate's transcode) and through its JSON
// re-encoding (the client's encode).
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		// Bodies the serve, gate, jobs and stream tests post.
		`{"samples":[]}`,
		`{"samples":[{"times":[0,1],"values":[[1,2],[3,4]]}]}`,
		`{"samples":[{"times":[1,0],"values":[[1,2],[3,4]]}]}`,
		`{"samples":[{"times":[0,1],"values":[[1,NaN],[3,4]]}]}`,
		`{"samples":[{"times":[0,1e999],"values":[[1,2],[3,4]]}]}`,
		`{"samples":[{"times":[0,0.5,1,1.5,2],"values":[[1,2,1,2,1]]}]}`,
		`{"model":"ghost","samples":[{"times":[0],"values":[[1]]}]}`,
		`{"samples":[{"times":[0,0.5,1],"values":[[1,2,3],[4,5,6]]}],"explain":2}`,
		`{"model":"m","chunk":4,"samples":[{"times":[-0,5e-324,1.7976931348623157e308],"values":[[null,-0,1e-400]]}]}`,
		// Ragged, negative-explain and trailing-byte cases.
		`{"samples":[{"times":[0,1,2],"values":[[1,2,3],[4,5]]}]}`,
		`{"samples":[{"times":[],"values":[[],[]]}]}`,
		`{"samples":[{"times":[0],"values":[[1]]}],"explain":-1}`,
		`{"samples":[{"times":[0],"values":[[1]]}]} }garbage{`,
		`{"samples":[]}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBody("application/json", data)
		if err != nil {
			if !errors.Is(err, ErrJSON) {
				t.Fatalf("failure without ErrJSON: %v", err)
			}
			return
		}
		viaFrame, err := DecodeRequest(EncodeRequest(b.Request))
		if err != nil {
			t.Fatalf("the frame of a decoded body does not decode: %v", err)
		}
		if !bodiesEqual(Body{Request: viaFrame, Model: b.Model, Chunk: b.Chunk}, b) {
			t.Fatal("frame round trip changed the request")
		}
		raw, err := EncodeJSON(b)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		viaJSON, err := DecodeBody("application/json", raw)
		if err != nil {
			t.Fatalf("the JSON re-encoding %s does not decode: %v", strings.TrimSpace(string(raw)), err)
		}
		if !bodiesEqual(viaJSON, b) {
			t.Fatalf("JSON round trip changed the request: %s", raw)
		}
	})
}
