// Package decoder is an mfodlint fixture for the wirebounds analyzer:
// every encoding/binary integer decode outside reader.go of a package
// named wire is a finding, whatever its byte order or form, and the
// encoders are not. DecodeWrap is the old wire.decodeSample wrap bug,
// caught now by where it reads rather than by what it computes.
package decoder

import (
	"bytes"
	"encoding/binary"
	"errors"
)

var errRange = errors.New("decoder: count out of range")

const maxVars = 1 << 10

// DecodeWrap is the decodeSample bug: m and p are checked one by one,
// but the element count is computed in uint32 and wraps.
func DecodeWrap(b []byte) ([]float64, error) {
	m := binary.LittleEndian.Uint32(b)     // want "integer decode outside internal/wire/reader.go"
	p := binary.LittleEndian.Uint32(b[4:]) // want "integer decode outside internal/wire/reader.go"
	if m == 0 || m > maxVars || p > maxVars {
		return nil, errRange
	}
	return make([]float64, (1+p)*m), nil
}

// BigEndian reads the same prefix in the other byte order.
func BigEndian(b []byte) int {
	return int(binary.BigEndian.Uint32(b)) // want "integer decode outside"
}

// Stream decodes through binary.Read.
func Stream(b []byte) (uint32, error) {
	var n uint32
	err := binary.Read(bytes.NewReader(b), binary.LittleEndian, &n) // want "integer decode outside"
	return n, err
}

// Varint decodes a varint prefix.
func Varint(b []byte) uint64 {
	n, _ := binary.Uvarint(b) // want "integer decode outside"
	return n
}

// Value takes a decode as a function value without calling it.
func Value() func([]byte) uint64 {
	return binary.LittleEndian.Uint64 // want "integer decode outside"
}

// Encode writes integers: the Append and Put encoders are not findings.
func Encode(n uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, n)
	b = binary.AppendUvarint(b, uint64(n))
	binary.BigEndian.PutUint16(b, 7)
	return b
}

// AllowedTag documents a tolerated decode.
func AllowedTag(b []byte) bool {
	//mfodlint:allow wirebounds fixture tag compared with a constant, never a length
	return binary.BigEndian.Uint16(b) == 0xCAFE
}
