package wire

import "encoding/binary"

// Decode reads through the reader: clean.
func Decode(b []byte) ([]float64, error) {
	r := reader{rest: b}
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	return make([]float64, n), nil
}

// Peek decodes beside the reader, in the right package but the wrong
// file.
func Peek(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b) // want "integer decode outside"
}
