package decoder

import "encoding/binary"

// Count decodes in a file named reader.go of a package not named wire:
// the file name alone exempts nothing.
func Count(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b) // want "integer decode outside"
}
