package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/fda"
	"repro/internal/jsontext"
)

// ErrJSON reports a JSON curve body that does not parse or that no
// frame could carry. Every JSON decode failure wraps it, as every frame
// decode failure wraps ErrWire.
var ErrJSON = errors.New("wire: invalid JSON body")

// Body is one decoded curve body of either codec: the request a frame
// carries, plus the two fields only a JSON /v1/jobs body has room for.
// A frame submitted to /v1/jobs carries them in the query string.
type Body struct {
	Request
	// Model names the job's model on a JSON /v1/jobs body; "" otherwise.
	Model string
	// Chunk overrides the job's chunk size on a JSON /v1/jobs body; 0
	// (the server default) otherwise.
	Chunk int
}

// jsonBody is the JSON form of a curve body, the body of POST /v1/score
// and POST /v1/jobs, as EncodeJSON renders it. Samples use the shape of
// the repository's dataset JSON files, so `mfodgen -json` output posts
// as is (unknown fields such as its labels are skipped).
type jsonBody struct {
	Samples []jsonSample `json:"samples"`
	Explain int          `json:"explain,omitempty"`
	Model   string       `json:"model,omitempty"`
	Chunk   int          `json:"chunk,omitempty"`
}

type jsonSample struct {
	Times  []float64   `json:"times"`
	Values [][]float64 `json:"values"`
}

// IsFrame reports whether a Content-Type header value names the binary
// frame (parameters such as charset are ignored). Any other value is
// JSON, so clients that send no Content-Type keep working.
func IsFrame(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.TrimSpace(mt) == ContentType
}

// DecodeBody decodes a curve body under its Content-Type: a frame when
// IsFrame says so, JSON otherwise. JSON goes through the repository's
// one JSON scanner (internal/jsontext): it reads what encoding/json
// reads, bit for bit, and refuses a null where the schema expects a
// value (jsontext.ErrNull) and a field given twice
// (jsontext.ErrDuplicate), the two inputs encoding/json misreads. A
// JSON body decodes only if one frame could carry it, so
// both codecs hand the same requests to the tiers: nothing but
// whitespace may follow the JSON value, every value column has exactly
// as many points as times, a sample with parameters has points, and
// explain and chunk are not negative (explain also fits the frame's
// uint32). Curve invariants (finite values, increasing times) stay with
// the serving sanitizer, for both codecs.
func DecodeBody(contentType string, data []byte) (Body, error) {
	if IsFrame(contentType) {
		req, err := DecodeRequest(data)
		return Body{Request: req}, err
	}
	b, err := decodeJSON(data)
	if err == nil {
		err = b.check()
	}
	if err != nil {
		return Body{}, err
	}
	return b, nil
}

// check holds a decoded JSON body to what one frame can carry.
func (b Body) check() error {
	if b.Explain < 0 || uint64(b.Explain) > math.MaxUint32 {
		return fmt.Errorf("explain %d is outside the frame's 0..%d: %w", b.Explain, uint64(math.MaxUint32), ErrJSON)
	}
	if b.Chunk < 0 {
		return fmt.Errorf("chunk %d is negative: %w", b.Chunk, ErrJSON)
	}
	for i, s := range b.Dataset.Samples {
		for k, col := range s.Values {
			if len(col) != len(s.Times) {
				return fmt.Errorf("sample %d: values[%d] has %d points but times has %d: %w",
					i, k, len(col), len(s.Times), ErrJSON)
			}
		}
		if len(s.Times) == 0 && len(s.Values) > 0 {
			return fmt.Errorf("sample %d: %d parameters with zero measurement points: %w", i, len(s.Values), ErrJSON)
		}
	}
	return nil
}

// The keys of each object the JSON bodies hold.
var (
	bodyFields   = jsontext.Fields{"samples", "explain", "model", "chunk"}
	sampleFields = jsontext.Fields{"times", "values"}
	appendFields = jsontext.Fields{"model", "points"}
	pointFields  = jsontext.Fields{"t", "v"}
)

// decodeJSON scans a JSON curve body. Unknown keys are skipped, so
// dataset files with labels post as they are. A sample without times or
// values has them empty, not nil, so its JSON re-encoding is [] rather
// than null.
func decodeJSON(data []byte) (Body, error) {
	// The number scratch starts on the stack, with room for a column
	// three times the Fig. 3 grid's 85 points.
	s := jsontext.NewScanner(data, ErrJSON, make([]float64, 0, 256))
	b := Body{Request: Request{Dataset: fda.Dataset{Samples: []fda.Sample{}}}}
	var seen uint32
	err := s.Object("the body object", func(key []byte) error {
		i, err := s.Field(bodyFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			err = s.Array("samples", func() error {
				smp, err := scanSample(&s)
				b.Dataset.Samples = append(b.Dataset.Samples, smp)
				return err
			})
		case i == 1:
			b.Explain, err = s.Int("explain")
		case i == 2:
			b.Model, err = s.String("model")
		case i == 3:
			b.Chunk, err = s.Int("chunk")
		default:
			err = s.Skip()
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	return b, err
}

// scanSample scans one sample object of a curve body.
func scanSample(s *jsontext.Scanner) (fda.Sample, error) {
	smp := fda.Sample{Times: []float64{}, Values: [][]float64{}}
	var seen uint32
	err := s.Object("a sample object", func(key []byte) error {
		i, err := s.Field(sampleFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			smp.Times, err = s.FloatArray("times")
		case i == 1:
			err = s.Array("values", func() error {
				col, err := s.FloatArray("a values column")
				smp.Values = append(smp.Values, col)
				return err
			})
		default:
			err = s.Skip()
		}
		return err
	})
	return smp, err
}

// Point is one observation of a stream append: the p-vector V observed
// at time T.
type Point struct {
	T float64   `json:"t"`
	V []float64 `json:"v"`
}

// Append is a decoded stream append body, the body of POST
// /v1/streams/{id}/append.
type Append struct {
	// Model names the stream's model: required on a stream's first
	// append, and checked against it on later ones when given.
	Model  string
	Points []Point
}

// ErrNoTime reports a stream append point without "t", which
// encoding/json would read as t = 0.
var ErrNoTime = fmt.Errorf("%w: point without \"t\"", ErrJSON)

// DecodeAppend decodes a stream append body,
//
//	{"model": "ecg", "points": [{"t": 0.5, "v": [1, 2]}, ...]}
//
// through the same scanner as DecodeBody, with its two refusals
// (jsontext.ErrNull, jsontext.ErrDuplicate), and two of its own: an unknown key at any
// level, and a point without t (ErrNoTime). Nothing but whitespace may
// follow the value. A point without v has none.
func DecodeAppend(data []byte) (Append, error) {
	s := jsontext.NewScanner(data, ErrJSON, nil)
	var a Append
	var seen uint32
	err := s.Object("the append object", func(key []byte) error {
		i, err := s.Field(appendFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			a.Model, err = s.String("model")
		case i == 1:
			a.Points = []Point{}
			err = s.Array("points", func() error {
				p, err := scanPoint(&s)
				a.Points = append(a.Points, p)
				return err
			})
		default:
			err = s.Errorf("unknown field %q", key)
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return Append{}, err
	}
	return a, nil
}

// scanPoint scans one point object of a stream append.
func scanPoint(s *jsontext.Scanner) (Point, error) {
	var p Point
	var seen uint32
	err := s.Object("a point object", func(key []byte) error {
		i, err := s.Field(pointFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			p.T, err = s.Float("t")
		case i == 1:
			p.V, err = s.FloatArray("v")
		default:
			err = s.Errorf("unknown field %q", key)
		}
		return err
	})
	if err == nil && seen&1 == 0 {
		err = fmt.Errorf("offset %d: %w", s.Offset(), ErrNoTime)
	}
	return p, err
}

// EncodeJSON renders b as a JSON curve body; DecodeBody gives b back.
// It fails only on values JSON cannot carry (NaN, ±Inf).
func EncodeJSON(b Body) ([]byte, error) {
	j := jsonBody{Samples: make([]jsonSample, len(b.Dataset.Samples)), Explain: b.Explain, Model: b.Model, Chunk: b.Chunk}
	for i, s := range b.Dataset.Samples {
		j.Samples[i] = jsonSample{Times: s.Times, Values: s.Values}
	}
	return json.Marshal(j)
}
