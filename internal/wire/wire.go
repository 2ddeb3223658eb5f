// Package wire owns the curve body of the scoring and jobs routes in
// both codecs: the JSON body and its validating decode (body.go), and
// the binary curve encoding spoken on the hot wire between scoring
// clients, the mfodgate front tier and mfodserve replicas (this file).
// JSON number formatting costs ~2.5 bytes per digit of every
// float64; the binary frame carries the same curves as raw
// little-endian IEEE-754 columns at a fixed 8 bytes per value, cutting
// request bodies to well under half their JSON size (see
// BENCH_serve.json) while decoding in a single allocation-bounded walk
// over the buffer — no reflection, no intermediate buffers, no unsafe.
// Both frames of the package, this request frame and the scores frame
// (scores.go), are decoded through one reader (reader.go).
//
// The frame layout is versioned and fully specified in DESIGN.md
// ("Binary wire format"). In short (all integers little-endian):
//
//	offset size
//	0      4     magic "MFW\x00"
//	4      1     version (currently 1)
//	5      3     reserved, must be zero
//	8      4     explain  (uint32: top-k explanation count, 0 = none)
//	12     4     nsamples (uint32)
//	16     …     nsamples sample records
//
// and each sample record is
//
//	4            m (uint32: measurement points)
//	4            p (uint32: parameters / channels)
//	8*m          times column, float64 LE
//	p × 8*m      value columns, float64 LE (parameter k contiguous)
//
// The m and p fields are the length prefixes of the float64 columns
// that follow. The reader is the only code that decodes an integer off
// a frame, and it gives out a length only through its count, as an int
// already checked against the bytes remaining, so a hostile frame can
// neither over-allocate nor panic a decoder (FuzzWireDecode locks this
// in for both frames). Unknown versions and trailing garbage are
// errors: the format evolves by bumping the version byte, never by
// silently tolerating mystery bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/fda"
)

// ContentType is the MIME type negotiating this encoding on HTTP scoring
// requests. Bodies of any other content type are treated as JSON, so
// existing clients keep working unchanged.
const ContentType = "application/x-mfod-wire"

// Version is the frame version this package encodes. Decoders accept
// exactly this version; older readers reject newer frames instead of
// misparsing them.
const Version = 1

// magic marks the first four bytes of every frame. The trailing NUL
// keeps the marker outside printable-JSON space, so a frame body posted
// with the wrong Content-Type fails fast instead of half-parsing.
var magic = [4]byte{'M', 'F', 'W', 0}

// headerSize is the fixed prefix before the sample records.
const headerSize = 16

// ErrWire reports a malformed or unsupported binary frame. Every decode
// failure wraps it, so HTTP layers can map the whole class to 400.
var ErrWire = errors.New("wire: invalid frame")

// Request is the decoded form of one scoring request frame: the curves
// plus the optional explanation count, mirroring the JSON body of
// POST /v1/score?model={name}.
type Request struct {
	Dataset fda.Dataset
	// Explain asks for the top-k most deviating grid positions per
	// sample; 0 disables.
	Explain int
}

// EncodedSize returns the exact frame size AppendRequest will produce,
// so callers can pre-allocate and byte-accounting benchmarks can report
// wire sizes without encoding.
func EncodedSize(ds fda.Dataset) int {
	n := headerSize
	for _, s := range ds.Samples {
		n += 8 + 8*len(s.Times)*(1+len(s.Values))
	}
	return n
}

// EncodeRequest renders req as one binary frame.
func EncodeRequest(req Request) []byte {
	return AppendRequest(make([]byte, 0, EncodedSize(req.Dataset)), req)
}

// AppendRequest appends the frame encoding of req to dst and returns the
// extended slice, letting callers reuse buffers across requests.
func AppendRequest(dst []byte, req Request) []byte {
	var b8 [8]byte
	copy(b8[:4], magic[:])
	b8[4] = Version
	dst = append(dst, b8[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(max(req.Explain, 0)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Dataset.Samples)))
	for _, s := range req.Dataset.Samples {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Times)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Values)))
		for _, t := range s.Times {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
		}
		for _, col := range s.Values {
			for _, v := range col {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
	}
	return dst
}

// DecodeRequest parses one frame in a single forward walk of a reader
// (reader.go): every length comes out of its count, checked against the
// bytes left before the slice it sizes is allocated, so truncated or
// lying frames error out without large allocations. The returned dataset
// owns fresh slices; data may be reused afterwards.
//
// Structural curve invariants (finite values, increasing times, uniform
// dimension) are deliberately not enforced here — the serving layer's
// sanitizer owns those rules for JSON and binary bodies alike.
func DecodeRequest(data []byte) (Request, error) {
	r, err := newReader(data, magic, headerSize)
	if err != nil {
		return Request{}, err
	}
	explain := r.u32()
	// Each sample record is at least its 8 bytes of lengths.
	n, err := r.count(8)
	if err != nil {
		return Request{}, fmt.Errorf("sample count: %w", err)
	}
	req := Request{Explain: int(explain), Dataset: fda.Dataset{Samples: make([]fda.Sample, n)}}
	for i := range req.Dataset.Samples {
		if req.Dataset.Samples[i], err = decodeSample(&r); err != nil {
			return Request{}, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	if err := r.done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// decodeSample reads one sample record: m, counted at 8 bytes per point
// of the times column; p, counted at 8m bytes per value column, so a
// sample without points has no parameters; then the columns.
func decodeSample(r *reader) (fda.Sample, error) {
	m, err := r.count(8)
	if err != nil {
		return fda.Sample{}, err
	}
	p, err := r.count(8 * uint64(m))
	if err != nil {
		return fda.Sample{}, err
	}
	s := fda.Sample{Values: make([][]float64, p)}
	if s.Times, err = r.floats(m); err != nil {
		return fda.Sample{}, err
	}
	for k := range s.Values {
		if s.Values[k], err = r.floats(m); err != nil {
			return fda.Sample{}, err
		}
	}
	return s, nil
}
