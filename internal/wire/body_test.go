package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/jsontext"
)

// bodiesEqual compares two decoded bodies field by field, the curves
// bitwise.
func bodiesEqual(a, b Body) bool {
	return a.Model == b.Model && a.Chunk == b.Chunk && a.Explain == b.Explain &&
		datasetsEqual(a.Dataset, b.Dataset)
}

// referenceBody is the JSON half of DecodeBody as it was on
// encoding/json: Unmarshal, then the same frame-fit checks. It is the
// reference of the differential oracle.
func referenceBody(data []byte) (Body, error) {
	var j jsonBody
	if err := json.Unmarshal(data, &j); err != nil {
		return Body{}, err
	}
	b := Body{
		Request: Request{Dataset: fda.Dataset{Samples: make([]fda.Sample, len(j.Samples))}, Explain: j.Explain},
		Model:   j.Model,
		Chunk:   j.Chunk,
	}
	for i, s := range j.Samples {
		b.Dataset.Samples[i] = fda.Sample{Times: s.Times, Values: s.Values}
	}
	return b, b.check()
}

// referenceAppend is the stream append decode as it was on
// encoding/json: a Decoder refusing unknown fields, then a Token call
// that must find the end of the data.
func referenceAppend(data []byte) (Append, error) {
	var req struct {
		Model  string  `json:"model"`
		Points []Point `json:"points"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("invalid data after top-level value")
		}
	}
	return Append{Model: req.Model, Points: req.Points}, err
}

func appendsEqual(a, b Append) bool {
	if a.Model != b.Model || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if math.Float64bits(p.T) != math.Float64bits(q.T) || len(p.V) != len(q.V) {
			return false
		}
		for k := range p.V {
			if math.Float64bits(p.V[k]) != math.Float64bits(q.V[k]) {
				return false
			}
		}
	}
	return true
}

// disagreement is the differential oracle: "" when the scanner's
// result (err, and the value equal compares) agrees with the
// reference's (refErr), else what went wrong. The scanner may refuse a
// body encoding/json accepts only with one of the named refusals; it
// accepts nothing encoding/json refuses, and what both accept decodes
// to the same value, bit for bit.
func disagreement(err, refErr error, equal func() bool, named ...error) string {
	switch {
	case err == nil && refErr != nil:
		return fmt.Sprintf("accepted what encoding/json refuses (%v)", refErr)
	case err == nil && !equal():
		return "decoded another value than encoding/json"
	case err != nil && !errors.Is(err, ErrJSON):
		return fmt.Sprintf("failure without ErrJSON: %v", err)
	case err != nil && refErr == nil:
		for _, e := range named {
			if errors.Is(err, e) {
				return ""
			}
		}
		return fmt.Sprintf("refused what encoding/json accepts, without a named refusal: %v", err)
	}
	return ""
}

func bodyDisagreement(data []byte) string {
	got, err := DecodeBody("application/json", data)
	want, refErr := referenceBody(data)
	return disagreement(err, refErr, func() bool { return bodiesEqual(got, want) }, jsontext.ErrNull, jsontext.ErrDuplicate)
}

func appendDisagreement(data []byte) string {
	got, err := DecodeAppend(data)
	want, refErr := referenceAppend(data)
	return disagreement(err, refErr, func() bool { return appendsEqual(got, want) }, jsontext.ErrNull, jsontext.ErrDuplicate, ErrNoTime)
}

// maxDepth is encoding/json's limit on nested arrays and objects, which
// the scanner keeps.
const maxDepth = 10000

// nested is an unknown key holding n nested arrays: the body's own
// object makes n+1 levels, against encoding/json's 10,000.
func nested(n int) string {
	return `{"deep":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"samples":[]}`
}

// quirkBodies are the curve bodies encoding/json misreads: each is
// accepted there, and refused by the scanner with the named error.
var quirkBodies = []struct {
	body string
	want error
}{
	{`{"samples":[{"times":[0,1,2],"values":[[1,null,3]]}]}`, jsontext.ErrNull},
	{`{"samples":[{"times":[0,1],"values":[[1,2]]}],"samples":[{"times":[0,1]}]}`, jsontext.ErrDuplicate},
	{`{"samples":[{"times":[0,1],"values":[[1,2]]}],"samples":[{"times":[0,1],"values":[[null,5]]}]}`, jsontext.ErrDuplicate},
	{`{"samples":[{"times":[0,1],"values":[[1,2]],"Times":[5,6]}]}`, jsontext.ErrDuplicate},
	{`{"samples":null}`, jsontext.ErrNull},
	{`{"samples":[null]}`, jsontext.ErrNull},
	{`{"samples":[{"times":null,"values":[]}]}`, jsontext.ErrNull},
	{`{"samples":[{"times":[0],"values":[[1]]}],"explain":1,"Explain":2}`, jsontext.ErrDuplicate},
	{`{"samples":[],"explain":null}`, jsontext.ErrNull},
	{`{"samples":[],"model":null}`, jsontext.ErrNull},
	{`{"samples":[],"model":"a","model":"b"}`, jsontext.ErrDuplicate},
	{`null`, jsontext.ErrNull},
}

// quirkAppends are the append bodies encoding/json misreads, refused
// by the scanner with the named error.
var quirkAppends = []struct {
	body string
	want error
}{
	{`{"model":"ecg","points":[{"t":null,"v":[1,2]}]}`, jsontext.ErrNull},
	{`{"model":"ecg","points":[{"v":[1,2]}]}`, ErrNoTime},
	{`{"model":"ecg","points":[{"t":0.5,"v":[null,2]}]}`, jsontext.ErrNull},
	{`{"model":"ecg","points":[{"t":0.5,"t":0.7,"v":[1,2]}]}`, jsontext.ErrDuplicate},
	{`{"model":"ecg","points":[null]}`, jsontext.ErrNull},
	{`{"model":"ecg","points":[{}]}`, ErrNoTime},
	{`{"model":"ecg","Model":"other","points":[]}`, jsontext.ErrDuplicate},
	{`{"model":null,"points":[]}`, jsontext.ErrNull},
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

// TestScannerRefusesQuirks: every body encoding/json misreads is
// accepted there and refused by the scanner with its named error.
func TestScannerRefusesQuirks(t *testing.T) {
	for _, c := range quirkBodies {
		if _, err := referenceBody([]byte(c.body)); err != nil {
			t.Errorf("%s: encoding/json refuses it (%v); it is no quirk", c.body, err)
		}
		if _, err := DecodeBody("application/json", []byte(c.body)); !errors.Is(err, c.want) || !errors.Is(err, ErrJSON) {
			t.Errorf("%s: err = %v, want %v", c.body, err, c.want)
		}
	}
	for _, c := range quirkAppends {
		if _, err := referenceAppend([]byte(c.body)); err != nil {
			t.Errorf("%s: encoding/json refuses it (%v); it is no quirk", c.body, err)
		}
		if _, err := DecodeAppend([]byte(c.body)); !errors.Is(err, c.want) || !errors.Is(err, ErrJSON) {
			t.Errorf("%s: err = %v, want %v", c.body, err, c.want)
		}
	}
}

// TestScannerAgreesWithEncodingJSON holds the scanner to encoding/json
// on a Fig. 3 dataset's body with every field set, and on the inputs
// where the two are easiest to tell apart: key matching (escapes, case
// folding, Unicode folds), string escapes and invalid UTF-8, number
// edges, integer fields given as non-integers, skipped values of every
// kind, and the nesting limit on either side of it.
func TestScannerAgreesWithEncodingJSON(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := EncodeJSON(Body{Request: Request{Dataset: d, Explain: 3}, Model: "ecg", Chunk: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBody("application/json", fig3); err != nil {
		t.Fatalf("Fig. 3 body: %v", err)
	}
	bodies := []string{
		string(fig3),
		`{"samples":[{"times":[0,1],"values":[[1,2]]}]}`,
		`{"Samples":[{"TIMES":[0,1],"Values":[[1,2]]}]}`,
		`{"s\u0061mples":[{"t\u0069mes":[0],"values":[[1]]}],"m\u006fdel":"m"}`,
		`{"ſamples":[{"times":[0],"values":[[1]]}],"chun` + "K" + `":3}`,
		`{"samples ":[1],"sample":true}`,
		`{"samples":[],"model":"é😀\ud800x\udc00\ud800A\"\\\/\b\f\n\r\t"}`,
		"{\"samples\":[],\"model\":\"\xff\xfe\xc3(\xed\xa0\x80ok\xe2\x82\"}",
		"{\"samples\":[],\"\xffmodel\":1}",
		`{"samples":[{"times":[-0,0.0,1e-400,5e-324,2.4703282292062328e-324,1.7976931348623157e308,1E+2,12.5e-3],"values":[[0,0,0,0,0,0,0,0]]}]}`,
		`{"samples":[{"times":[1e999],"values":[[1]]}]}`,
		`{"samples":[{"times":[-1e400],"values":[[1]]}]}`,
		`{"samples":[],"explain":1.0}`,
		`{"samples":[],"explain":1e2}`,
		`{"samples":[],"explain":-0}`,
		`{"samples":[],"chunk":9223372036854775808}`,
		`{"samples":[],"chunk":"4"}`,
		`{"samples":[],"model":4}`,
		`{"samples":{}}`,
		`{"samples":[{"times":[0],"values":[1]}]}`,
		`{"samples":[{"times":["0"],"values":[[1]]}]}`,
		`{"samples":[{"times":[true],"values":[[1]]}]}`,
		`{"labels":[1,-2.5e3,"x\u0000",true,false,null,{"a":{"b":[]}},[]],"samples":[{"x":null,"times":[0],"values":[[1]]}]}`,
		`{"labels":1e999999,"samples":[]}`,
		`{"samples":[01]}`, `{"samples":[{"times":[1.],"values":[]}]}`, `{"samples":[{"times":[.5]}]}`,
		`{"samples":[{"times":[-],"values":[]}]}`, `{"samples":[{"times":[1e],"values":[]}]}`,
		`{"samples":[{"times":[+1],"values":[]}]}`, `{"samples":[{"times":[1,],"values":[]}]}`,
		`{"samples":[],}`, `{,"samples":[]}`, `{"samples" []}`, `{"samples":[] "model":"m"}`,
		`{"x":"\q","samples":[]}`, `{"x":"\'","samples":[]}`, `{"x":"\u12G4","samples":[]}`, "{\"x\":\"a\tb\",\"samples\":[]}",
		`{"x":tru,"samples":[]}`, `{"x":nul,"samples":[]}`, `{"x":"unterminated`,
		`{"`, `{"samples`, `{"samples":[],"model":"m`, `{"samples":[],"model":"\`, `{"a\u00`,
		"\ufeff{\"samples\":[]}", " \r\n\t{\"samples\":[]}\r\n", `{}`, `[]`, `"samples"`, `0`, ``,
		nested(maxDepth - 1), nested(maxDepth), nested(maxDepth + 5),
	}
	for _, body := range bodies {
		if d := bodyDisagreement([]byte(body)); d != "" {
			t.Errorf("%.80q: %s", body, d)
		}
	}
	if _, err := DecodeBody("application/json", []byte(nested(maxDepth-1))); err != nil {
		t.Errorf("%d levels: %v, want accepted as encoding/json accepts them", maxDepth, err)
	}
	if _, err := DecodeBody("application/json", []byte(nested(maxDepth))); !errors.Is(err, ErrJSON) {
		t.Errorf("%d levels: %v, want refused as encoding/json refuses them", maxDepth+1, err)
	}
	appends := []string{
		`{"model":"ecg","points":[{"t":0.5,"v":[1,2]},{"t":-0,"v":[]}]}`,
		`{"Model":"ecg","POINTS":[{"T":0.5,"V":[1,2]}]}`,
		`{"model":"ecg","pointſ":[{"t":1e-400}]}`,
		`{"model":"ecg","points":[]}`,
		`{"model":"ecg","points":[{"t":0.5,"v":[1,2],"w":1}]}`,
		`{"model":"ecg","points":[],"extra":null}`,
		`{"model":"ecg","points":[{"t":1e999,"v":[1]}]}`,
		`{"model":"ecg","points":[{"t":"0.5","v":[1]}]}`,
		`{"model":"ecg","points":{}}`,
		`{"model":"ecg"} }garbage{`, `{"model":"ecg"}{}`, `{"model":"ecg"} `, `{"model":"ecg"`, ``, `[]`,
		`{"deep":` + strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2) + `}`,
	}
	for _, body := range appends {
		if d := appendDisagreement([]byte(body)); d != "" {
			t.Errorf("append %.80q: %s", body, d)
		}
	}
}

// FuzzRequestDecode feeds arbitrary bytes to DecodeBody as a JSON body.
// Either they decode or the decoder fails with ErrJSON; it never
// panics. The result agrees with encoding/json under the differential
// oracle (disagreement). A body that decodes comes back bitwise through
// both codecs: through its frame (the gate's transcode) and through its
// JSON re-encoding (the client's encode).
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
		`{"samples":[{"times":[],"values":[]}]}`,
		// Escaped and case-folded keys, number edges, an integer field
		// given as a float, deep nesting inside an unknown key.
		`{"s\u0061mples":[{"times":[0],"values":[[1]]}]}`,
		`{"Samples":[{"Times":[0],"VALUES":[[1]]}]}`,
		`{"ſamples":[{"times":[0],"values":[[1]]}]}`,
		`{"samples":[{"times":[1e999],"values":[[1]]}]}`,
		`{"samples":[{"times":[1e-400,-0],"values":[[-0,1e-400]]}]}`,
		`{"samples":[],"explain":1.0}`,
		nested(50), nested(maxDepth - 1), nested(maxDepth),
	} {
		f.Add([]byte(seed))
	}
	for _, q := range quirkBodies {
		f.Add([]byte(q.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := bodyDisagreement(data); d != "" {
			t.Fatal(d)
		}
		b, err := DecodeBody("application/json", data)
		if err != nil {
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

// FuzzAppendDecode feeds arbitrary bytes to DecodeAppend and holds the
// result to the stream append's former encoding/json decode under the
// differential oracle (disagreement): a point without t is the
// append's third named refusal.
func FuzzAppendDecode(f *testing.F) {
	for _, seed := range []string{
		`{"model":"ecg","points":[{"t":0.1,"v":[1,2]},{"t":0.9,"v":[3,4]}]}`,
		`{"model":"ecg","points":[]}`,
		`{"model":"ecg","points":[{"t":0.5,"v":[1,2]}]} }garbage{`,
		`{"unknown":1,"model":"ecg","points":[{"t":0.5,"v":[1,2]}]}`,
		`{"points":[{"t":0.5,"v":[1,2]}],"model":"ecg"}`,
		`{"m\u006fdel":"ecg","points":[{"\u0074":0.5,"v":[1,2]}]}`,
		`{"Model":"ecg","Points":[{"T":0.5,"V":[1,2]}]}`,
		`{"model":"ecg","pointſ":[{"t":0.5,"v":[1,2]}]}`,
		`{"model":"ecg","points":[{"t":1e999,"v":[1,2]}]}`,
		`{"model":"ecg","points":[{"t":1e-400,"v":[-0,2]}]}`,
		`{"model":"ecg","points":[{"t":1.0,"v":[1,2]}]}`,
		`{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `,"model":"ecg"}`,
		`{"model":"ecg"`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	for _, q := range quirkAppends {
		f.Add([]byte(q.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := appendDisagreement(data); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkDecodeBody decodes one Fig. 3 curve body, as EncodeJSON
// renders it, through the scanner and through encoding/json, and the
// same curve as a frame.
func BenchmarkDecodeBody(b *testing.B) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Dataset: fda.Dataset{Samples: d.Samples[:1]}}
	raw, err := EncodeJSON(Body{Request: req})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		decode func([]byte) (Body, error)
	}{
		{"scanner", raw, func(data []byte) (Body, error) { return DecodeBody("application/json", data) }},
		{"encoding_json", raw, referenceBody},
		{"frame", EncodeRequest(req), func(data []byte) (Body, error) { return DecodeBody(ContentType, data) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(c.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
