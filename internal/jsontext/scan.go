// Package jsontext reads and writes the repository's JSON documents in
// one forward pass: the curve bodies of the serving tiers
// (internal/wire) and the model files of fitted pipelines
// (internal/core, internal/iforest). Readers walk a document in its
// fixed shape with a Scanner, with no reflection and no intermediate
// tree; writers append with a Writer, whose numbers are the bytes
// encoding/json writes.
package jsontext

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The Scanner accepts exactly the documents encoding/json accepts for
// the shape its caller reads, less the three it misreads, and reads
// every accepted value as encoding/json does:
//
//   - syntax: RFC 8259 as encoding/json's scanner checks it, in every
//     value, skipped ones included, with its limit of maxDepth nested
//     arrays and objects, counted from the top of the document;
//   - keys: unquoted, then matched to a field exactly, or else under
//     bytes.EqualFold (encoding/json's rule, so "Samples" and "ſamples"
//     name samples); an unknown key's value is skipped;
//   - numbers: strconv.ParseFloat (strconv.Atoi for counts) on the
//     literal's own bytes, the calls encoding/json makes, so every bit
//     is the one it gives; a value out of float64 range is refused;
//   - strings: escapes and invalid UTF-8 decode as encoding/json decodes
//     them (unquote).
//
// The refusals: encoding/json leaves a value unchanged on null and
// merges a field given twice into one object, so `[1,null,3]` reads as
// [1,0,3] and a second "samples" keeps the first copy's "values"; and
// json.Decoder stops after the first value, so whatever follows it is
// ignored. The Scanner refuses all three, with ErrNull, ErrDuplicate
// and ErrTrailing.

var (
	// ErrNull reports a JSON null where the document's schema expects a
	// value.
	ErrNull = errors.New("null where a value is expected")
	// ErrDuplicate reports a field given twice in one object.
	ErrDuplicate = errors.New("field given twice")
	// ErrTrailing reports anything but whitespace after the document's
	// value.
	ErrTrailing = errors.New("data after the top-level value")
)

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// Scanner reads one JSON document from data. Each method reads one
// value at the current offset, leading whitespace first, and leaves the
// offset after it. Every failure wraps the error the Scanner was made
// with, so each caller keeps its own error type; the three refusals
// wrap their sentinel as well.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	fail  error
	// floats collects one number array before it is copied out at its
	// exact length.
	floats []float64
}

// NewScanner returns a Scanner over data whose failures wrap fail.
// FloatArray collects into scratch; a caller that passes a buffer on
// its own stack reads number arrays up to its capacity without
// allocating for them.
func NewScanner(data []byte, fail error, scratch []float64) Scanner {
	return Scanner{data: data, fail: fail, floats: scratch}
}

// Offset returns the current offset into the document.
func (s *Scanner) Offset() int { return s.pos }

// Errorf is a failure at the current offset.
func (s *Scanner) Errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s: %w", s.pos, fmt.Sprintf(format, args...), s.fail)
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) ws() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// unexpected is the failure for a byte, or the end, where want belongs.
func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.Errorf("unexpected end of data, want %s", want)
	}
	return s.Errorf("invalid character %q, want %s", s.data[s.pos], want)
}

// badValue is the failure for a value of the wrong type where the
// schema expects what; a null is ErrNull.
func (s *Scanner) badValue(what string) error {
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return fmt.Errorf("offset %d: null for %s: %w: %w", s.pos, what, s.fail, ErrNull)
	}
	return s.unexpected(what)
}

// End requires that nothing but whitespace follows the document.
func (s *Scanner) End() error {
	if s.ws(); s.pos < len(s.data) {
		return fmt.Errorf("offset %d: invalid character %q: %w: %w", s.pos, s.data[s.pos], s.fail, ErrTrailing)
	}
	return nil
}

// nest enters one more array or object level, refusing the one past
// maxDepth.
func (s *Scanner) nest() error {
	if s.depth >= maxDepth {
		return s.Errorf("nesting deeper than %d", maxDepth)
	}
	s.depth++
	return nil
}

// Object reads an object, calling field with each key, unquoted, and
// the Scanner at the key's value; field must read that value.
func (s *Scanner) Object(what string, field func(key []byte) error) error {
	if s.ws() != '{' {
		return s.badValue(what)
	}
	if err := s.nest(); err != nil {
		return err
	}
	s.pos++
	if s.ws() == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if s.ws() != '"' {
			return s.unexpected("a key")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws() != ':' {
			return s.unexpected("':'")
		}
		s.pos++
		if err := field(key); err != nil {
			return err
		}
		switch s.ws() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.unexpected("',' or '}'")
		}
	}
}

// Array reads an array, calling elem with the Scanner at each element;
// elem must read it.
func (s *Scanner) Array(what string, elem func() error) error {
	if s.ws() != '[' {
		return s.badValue(what)
	}
	if err := s.nest(); err != nil {
		return err
	}
	s.pos++
	if s.ws() == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.ws() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return nil
		default:
			return s.unexpected("',' or ']'")
		}
	}
}

// Fields is the key set of one object shape, at most 32 keys: a
// uint32 records which of them one object has given.
type Fields []string

// index returns the index of the field key names, exactly or else
// under bytes.EqualFold, or -1 for an unknown key.
func (f Fields) index(key []byte) int {
	for i, name := range f {
		if string(key) == name {
			return i
		}
	}
	for i, name := range f {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// Field resolves key in f and marks it in seen, refusing a field the
// object has already given; it returns -1 for an unknown key.
func (s *Scanner) Field(f Fields, key []byte, seen *uint32) (int, error) {
	i := f.index(key)
	if i < 0 {
		return -1, nil
	}
	if *seen&(1<<i) != 0 {
		return -1, fmt.Errorf("offset %d: %q: %w: %w", s.pos, f[i], s.fail, ErrDuplicate)
	}
	*seen |= 1 << i
	return i, nil
}

// number reads a number literal and returns its bytes.
func (s *Scanner) number(what string) ([]byte, error) {
	if c := s.ws(); c != '-' && (c < '0' || c > '9') {
		return nil, s.badValue(what)
	}
	d, start := s.data, s.pos
	i := start
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		s.pos = i
		return nil, s.unexpected("a digit")
	}
	if i < len(d) && d[i] == '.' {
		if i+1 >= len(d) || d[i+1] < '0' || d[i+1] > '9' {
			s.pos = i + 1
			return nil, s.unexpected("a digit after '.'")
		}
		i = digits(d, i+2)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			s.pos = i
			return nil, s.unexpected("an exponent digit")
		}
		i = digits(d, i+1)
	}
	s.pos = i
	return d[start:i], nil
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Float reads a number as a float64.
func (s *Scanner) Float(what string) (float64, error) {
	lit, err := s.number(what)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.Errorf("number %s is outside float64's range", lit)
	}
	return f, nil
}

// Int reads a number as an int; it must be an integer literal.
func (s *Scanner) Int(what string) (int, error) {
	lit, err := s.number(what)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(lit))
	if err != nil {
		return 0, s.Errorf("%s %s is not an integer in int's range", what, lit)
	}
	return n, nil
}

// FloatArray reads an array of numbers into a slice of its own, empty
// but not nil for [].
func (s *Scanner) FloatArray(what string) ([]float64, error) {
	s.floats = s.floats[:0]
	err := s.Array(what, func() error {
		f, err := s.Float("a number")
		s.floats = append(s.floats, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(make([]float64, 0, len(s.floats)), s.floats...), nil
}

// String reads a string value into a string of its own.
func (s *Scanner) String(what string) (string, error) {
	if s.ws() != '"' {
		return "", s.badValue(what)
	}
	b, err := s.str()
	return string(b), err
}

// str reads the string at pos, which holds its opening quote, and
// returns its value. The value aliases data unless it had escapes or
// bytes outside ASCII.
func (s *Scanner) str() ([]byte, error) {
	start := s.pos + 1
	end, plain, err := s.strEnd()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return s.data[start:end], nil
	}
	return unquote(s.data[start:end]), nil
}

// strEnd checks the syntax of the string at pos, which holds its
// opening quote, moves pos past its closing quote, and returns the
// index of that quote and whether the string is plain ASCII without
// escapes.
func (s *Scanner) strEnd() (end int, plain bool, err error) {
	d := s.data
	plain = true
	for i := s.pos + 1; ; {
		if i >= len(d) {
			s.pos = i
			return 0, false, s.unexpected("a closing '\"'")
		}
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return i, plain, nil
		case c == '\\':
			plain = false
			if i+1 < len(d) {
				switch d[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if i+5 < len(d) && hex4(d[i+2:i+6]) >= 0 {
						i += 6
						continue
					}
				}
			}
			s.pos = i
			return 0, false, s.Errorf("invalid escape in string")
		case c < ' ':
			s.pos = i
			return 0, false, s.Errorf("control character %q in string", c)
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes the body of a string strEnd has checked, as
// encoding/json does: each escape to its character; a surrogate pair
// to its rune, and a surrogate outside a pair to U+FFFD; each byte of
// invalid UTF-8 to U+FFFD.
func unquote(b []byte) []byte {
	out := make([]byte, 0, len(b)+utf8.UTFMax)
	for i := 0; i < len(b); {
		switch c := b[i]; {
		case c == '\\' && b[i+1] == 'u':
			r := hex4(b[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
					r2 = hex4(b[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			out = append(out, unescape[b[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// Skip reads one value of any type and checks its syntax.
func (s *Scanner) Skip() error {
	switch s.ws() {
	case '{':
		return s.Object("an object", func([]byte) error { return s.Skip() })
	case '[':
		return s.Array("an array", s.Skip)
	case '"':
		_, _, err := s.strEnd()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.number("a value")
	return err
}

// Raw skips one value and returns its bytes, which alias the document:
// a caller that keeps them must copy them.
func (s *Scanner) Raw() ([]byte, error) {
	s.ws()
	start := s.pos
	if err := s.Skip(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// literal reads the literal word.
func (s *Scanner) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		return s.Errorf("invalid literal, want %s", word)
	}
	s.pos += len(word)
	return nil
}
