package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ScoresContentType is the MIME type of the binary partial-scores frame
// spoken on job-chunk responses between mfodserve replicas and the
// mfodgate scatter/gather layer. The request direction reuses the curve
// frame (ContentType); this is its response-side counterpart, carrying
// raw float64 scores so a bulk job's inner hops never pay JSON number
// formatting.
const ScoresContentType = "application/x-mfod-scores"

// scoresMagic marks a scores frame. Distinct from the request magic so
// a frame fed to the wrong decoder fails on the first four bytes.
var scoresMagic = [4]byte{'M', 'F', 'S', 0}

// scoresHeaderSize is the fixed prefix before the score values:
//
//	offset size
//	0      4     magic "MFS\x00"
//	4      1     version (currently 1, shared with the request frame)
//	5      3     reserved, must be zero
//	8      8     start (uint64: absolute index of the first score)
//	16     4     count (uint32)
//	20     8×count scores, float64 LE
const scoresHeaderSize = 20

// Scores is one contiguous run of per-sample outlyingness scores: the
// chunk's absolute offset in the job's sample order plus its values.
// Carrying Start inside the frame (not just in the URL) means a
// misrouted or replayed chunk response cannot be merged at the wrong
// offset silently.
type Scores struct {
	Start  int
	Values []float64
}

// EncodedScoresSize returns the exact frame size AppendScores produces
// for n scores.
func EncodedScoresSize(n int) int {
	return scoresHeaderSize + 8*n
}

// EncodeScores renders s as one binary scores frame.
func EncodeScores(s Scores) []byte {
	return AppendScores(make([]byte, 0, EncodedScoresSize(len(s.Values))), s)
}

// AppendScores appends the frame encoding of s to dst and returns the
// extended slice.
func AppendScores(dst []byte, s Scores) []byte {
	var b8 [8]byte
	copy(b8[:4], scoresMagic[:])
	b8[4] = Version
	dst = append(dst, b8[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(max(s.Start, 0)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Values)))
	for _, v := range s.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeScores parses one scores frame through the reader DecodeRequest
// uses (reader.go): the count prefix is checked against the bytes
// actually present before the values slice is allocated, trailing bytes
// are an error, and every failure wraps ErrWire.
func DecodeScores(data []byte) (Scores, error) {
	r, err := newReader(data, scoresMagic, scoresHeaderSize)
	if err != nil {
		return Scores{}, fmt.Errorf("scores: %w", err)
	}
	start := r.u64()
	n, err := r.count(8)
	if err != nil {
		return Scores{}, fmt.Errorf("scores count: %w", err)
	}
	if start > math.MaxInt64-uint64(n) {
		return Scores{}, errf("scores frame start %d overflows", start)
	}
	s := Scores{Start: int(start)}
	if s.Values, err = r.floats(n); err != nil {
		return Scores{}, err
	}
	if err := r.done(); err != nil {
		return Scores{}, fmt.Errorf("scores: %w", err)
	}
	return s, nil
}
