package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// reader walks one frame front to back. It is the only code in the
// package that decodes an integer off a frame (mfodlint's wirebounds
// keeps it so), and it hands out a length only through count: an int
// that count × element size bytes are known to back. So no decoder can
// size a slice from a prefix nothing has checked, and no decoder does
// arithmetic on a raw prefix that could wrap past its check.
type reader struct {
	rest []byte
}

// newReader checks the 8-byte prefix both frames share (the frame's
// magic, Version, three zero reserved bytes) and that the frame holds
// its fixed header of header bytes, and returns a reader at the first
// field after the prefix.
func newReader(data []byte, magic [4]byte, header int) (reader, error) {
	if len(data) < header {
		return reader{}, errf("frame of %d bytes is shorter than its %d-byte header", len(data), header)
	}
	if [4]byte(data[:4]) != magic {
		return reader{}, errf("bad magic %q, want %q (is the Content-Type right?)", data[:4], string(magic[:]))
	}
	if v := data[4]; v != Version {
		return reader{}, errf("unsupported frame version %d (this reader speaks %d)", v, Version)
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return reader{}, errf("reserved header bytes are not zero")
	}
	return reader{rest: data[8:]}, nil
}

// u32 and u64 read a plain field of the fixed header, which newReader
// has checked is present. A length is never a plain field: see count.
func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.rest)
	r.rest = r.rest[4:]
	return v
}

func (r *reader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.rest)
	r.rest = r.rest[8:]
	return v
}

// count reads a uint32 length prefix and returns it as an int once
// count × elemSize fits the bytes left after the prefix. The product is
// compared in the division domain on uint64, so neither a huge count nor
// a huge element size can wrap the check; a zero element size admits
// only a zero count.
func (r *reader) count(elemSize uint64) (int, error) {
	if len(r.rest) < 4 {
		return 0, errf("%d bytes left, too few for a length prefix", len(r.rest))
	}
	n := uint64(binary.LittleEndian.Uint32(r.rest))
	r.rest = r.rest[4:]
	if n > 0 && (elemSize == 0 || n > uint64(len(r.rest))/elemSize) {
		return 0, errf("a count of %d at %d bytes each does not fit the %d bytes left", n, elemSize, len(r.rest))
	}
	return int(n), nil
}

// floats reads a column of n float64 values into a fresh slice, checking
// the column against the bytes left before it allocates.
func (r *reader) floats(n int) ([]float64, error) {
	if uint64(n) > uint64(len(r.rest))/8 {
		return nil, errf("a column of %d values exceeds the %d bytes left", n, len(r.rest))
	}
	b := r.rest[:8*n]
	r.rest = r.rest[8*n:]
	col := make([]float64, n)
	for j := range col {
		col[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
	}
	return col, nil
}

// done refuses trailing bytes: a frame ends with its last field.
func (r *reader) done() error {
	if len(r.rest) != 0 {
		return errf("%d trailing bytes after the frame's last field", len(r.rest))
	}
	return nil
}

// errf wraps a decode failure in ErrWire.
func errf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrWire)
}
