package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/fda"
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
// and POST /v1/jobs. Samples use the shape of the repository's dataset
// JSON files, so `mfodgen -json` output posts as is (unknown fields such
// as its labels are ignored).
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
// IsFrame says so, JSON otherwise. A JSON body decodes only if one frame
// could carry it, so both codecs hand the same requests to the tiers:
// nothing but whitespace may follow the JSON value, every value column
// has exactly as many points as times, a sample with parameters has
// points, and explain and chunk are not negative (explain also fits the
// frame's uint32). Curve invariants (finite values, increasing times)
// stay with the serving sanitizer, for both codecs.
func DecodeBody(contentType string, data []byte) (Body, error) {
	if IsFrame(contentType) {
		req, err := DecodeRequest(data)
		return Body{Request: req}, err
	}
	var j jsonBody
	if err := json.Unmarshal(data, &j); err != nil {
		return Body{}, fmt.Errorf("%v: %w", err, ErrJSON)
	}
	if j.Explain < 0 || uint64(j.Explain) > math.MaxUint32 {
		return Body{}, fmt.Errorf("explain %d is outside the frame's 0..%d: %w", j.Explain, uint64(math.MaxUint32), ErrJSON)
	}
	if j.Chunk < 0 {
		return Body{}, fmt.Errorf("chunk %d is negative: %w", j.Chunk, ErrJSON)
	}
	b := Body{
		Request: Request{Dataset: fda.Dataset{Samples: make([]fda.Sample, len(j.Samples))}, Explain: j.Explain},
		Model:   j.Model,
		Chunk:   j.Chunk,
	}
	for i, s := range j.Samples {
		for k, col := range s.Values {
			if len(col) != len(s.Times) {
				return Body{}, fmt.Errorf("sample %d: values[%d] has %d points but times has %d: %w",
					i, k, len(col), len(s.Times), ErrJSON)
			}
		}
		if len(s.Times) == 0 && len(s.Values) > 0 {
			return Body{}, fmt.Errorf("sample %d: %d parameters with zero measurement points: %w", i, len(s.Values), ErrJSON)
		}
		b.Dataset.Samples[i] = fda.Sample{Times: s.Times, Values: s.Values}
	}
	return b, nil
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
