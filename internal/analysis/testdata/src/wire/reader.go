// Package wire is an mfodlint fixture for the wirebounds analyzer: its
// reader.go is the one file that may decode integers, and it is clean.
package wire

import (
	"encoding/binary"
	"errors"
)

var errShort = errors.New("wire: short frame")

type reader struct{ rest []byte }

// count checks its length against the bytes left before handing it out.
func (r *reader) count(elemSize uint64) (int, error) {
	if len(r.rest) < 4 {
		return 0, errShort
	}
	n := uint64(binary.LittleEndian.Uint32(r.rest))
	r.rest = r.rest[4:]
	if n > 0 && (elemSize == 0 || n > uint64(len(r.rest))/elemSize) {
		return 0, errShort
	}
	return int(n), nil
}
