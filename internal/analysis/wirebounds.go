package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// Wirebounds keeps integer decoding of untrusted frames inside
// internal/wire's reader (reader.go), whose count hands out a length
// only as an int already checked against the bytes left (DESIGN.md §7).
// Any encoding/binary integer decode elsewhere, called or taken as a
// value, is a finding: outside the reader, a decoded length could size
// an allocation or wrap in arithmetic before anything checks it (the
// wire.decodeSample uint32 wrap class).
var Wirebounds = &Analyzer{
	Name: "wirebounds",
	Doc: "encoding/binary integer decodes (byte-order Uint16/32/64, Read, Decode, " +
		"varints) only in reader.go of internal/wire, whose count checks every " +
		"length against the bytes left before a make can use it",
	Run: runWirebounds,
}

func runWirebounds(p *Pass) {
	for _, f := range p.Files {
		if pathBase(p.Path) == "wire" && filepath.Base(p.Fset.File(f.Pos()).Name()) == "reader.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && isIntDecode(p.Info.Uses[id]) {
				p.Reportf(id.Pos(), "encoding/binary integer decode outside internal/wire/reader.go: "+
					"read frames through the wire reader, whose count checks a length against the bytes left before anything can allocate from it")
			}
			return true
		})
	}
}

// isIntDecode reports whether obj is an encoding/binary function or
// method that decodes an integer from bytes or a stream.
func isIntDecode(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "Uint16", "Uint32", "Uint64":
		return !recvIsNil(fn)
	case "Read", "Decode", "Uvarint", "Varint", "ReadUvarint", "ReadVarint":
		return recvIsNil(fn)
	}
	return false
}
