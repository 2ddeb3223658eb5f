package jsontext

import (
	"fmt"
	"math"
	"strconv"
)

// Writer appends a JSON document to a buffer. Its numbers are the bytes
// encoding/json writes for the same Go values, so a document that was
// written by encoding/json and is written again here comes out byte for
// byte the same. The first value JSON cannot carry (NaN, ±Inf) is kept
// as the Writer's error, which Bytes returns; writes after it go on, and
// their output is discarded with the error.
type Writer struct {
	buf []byte
	err error
}

// Bytes returns the document and the Writer's first error.
func (w *Writer) Bytes() ([]byte, error) { return w.buf, w.err }

// Raw appends text as it is: punctuation, keys, and values another
// encoder wrote.
func (w *Writer) Raw(text string) { w.buf = append(w.buf, text...) }

// Int appends n.
func (w *Writer) Int(n int) { w.buf = strconv.AppendInt(w.buf, int64(n), 10) }

// Float appends f as encoding/json writes a float64: the shortest
// decimal that reads back to f, in fixed notation, or in exponent
// notation below 1e-6 and from 1e21 on (ES6 number formatting), with an
// exponent written without a leading zero (1e-7, not 1e-07).
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("jsontext: %s is not a JSON number", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.buf = b
}

// FloatArray appends xs as an array, or null for a nil slice, as
// encoding/json writes a []float64.
func (w *Writer) FloatArray(xs []float64) {
	if xs == nil {
		w.Raw("null")
		return
	}
	w.buf = append(w.buf, '[')
	for i, x := range xs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.Float(x)
	}
	w.buf = append(w.buf, ']')
}
