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
// that follow; every length is validated against the bytes actually
// remaining before any slice is allocated, so a hostile frame can
// neither over-allocate nor panic the decoder (FuzzWireDecode locks
// this in). Unknown versions and trailing garbage are errors: the
// format evolves by bumping the version byte, never by silently
// tolerating mystery bytes.
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

// errf wraps a decode failure in ErrWire.
func errf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrWire)
}

// DecodeRequest parses one frame. The decode is a single forward walk
// over data: each length prefix is checked against the bytes remaining
// before its column slice is allocated, so truncated or lying frames
// error out without large allocations. The returned dataset owns fresh
// slices; data may be reused afterwards.
//
// Structural curve invariants (finite values, increasing times, uniform
// dimension) are deliberately not enforced here — the serving layer's
// sanitizer owns those rules for JSON and binary bodies alike.
func DecodeRequest(data []byte) (Request, error) {
	if len(data) < headerSize {
		return Request{}, errf("frame of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if [4]byte(data[:4]) != magic {
		return Request{}, errf("bad magic % x (is the body really %s?)", data[:4], ContentType)
	}
	if v := data[4]; v != Version {
		return Request{}, errf("unsupported frame version %d (this reader speaks %d)", v, Version)
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return Request{}, errf("reserved header bytes are not zero")
	}
	explain := binary.LittleEndian.Uint32(data[8:12])
	nsamples := binary.LittleEndian.Uint32(data[12:16])
	rest := data[headerSize:]
	// Each sample record is at least 8 bytes of lengths, so a frame
	// claiming more samples than rest/8 is lying — reject before
	// allocating the sample slice it promises.
	if uint64(nsamples) > uint64(len(rest)/8) {
		return Request{}, errf("%d samples cannot fit in %d remaining bytes", nsamples, len(rest))
	}
	req := Request{
		Explain: int(explain),
		Dataset: fda.Dataset{Samples: make([]fda.Sample, nsamples)},
	}
	for i := range req.Dataset.Samples {
		s, n, err := decodeSample(rest, i)
		if err != nil {
			return Request{}, err
		}
		req.Dataset.Samples[i] = s
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return Request{}, errf("%d trailing bytes after the last sample", len(rest))
	}
	return req, nil
}

// decodeSample parses one sample record from the front of data,
// returning the sample and the bytes consumed.
func decodeSample(data []byte, idx int) (fda.Sample, int, error) {
	if len(data) < 8 {
		return fda.Sample{}, 0, errf("sample %d: record truncated before its length prefixes", idx)
	}
	m := binary.LittleEndian.Uint32(data[0:4])
	p := binary.LittleEndian.Uint32(data[4:8])
	body := uint64(len(data) - 8)
	// 8*m*(1+p) bytes of columns must be present; do the comparison in
	// the division domain so a huge m×p cannot overflow the check, and
	// compute 1+p in uint64 so p=0xFFFFFFFF cannot wrap it to zero.
	if m > 0 && (uint64(m) > body/8 || uint64(p)+1 > body/8/uint64(m)) {
		return fda.Sample{}, 0, errf("sample %d: %d points × %d parameters exceed the %d remaining bytes", idx, m, p, body)
	}
	if m == 0 && p > 0 {
		return fda.Sample{}, 0, errf("sample %d: %d parameters with zero measurement points", idx, p)
	}
	s := fda.Sample{Times: make([]float64, m), Values: make([][]float64, p)}
	off := 8
	readCol := func(col []float64) {
		for j := range col {
			col[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
		}
	}
	readCol(s.Times)
	for k := range s.Values {
		s.Values[k] = make([]float64, m)
		readCol(s.Values[k])
	}
	return s, off, nil
}
