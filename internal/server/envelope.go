package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/solve envelope decoder. A service request is a ~10 KB JSON
// object whose bulk is two escaped strings, the net and library texts.
// encoding/json spends more CPU on that envelope than the engine spends on
// the DP, so /v1/solve reads its body once into a pooled buffer, walks the
// top-level object once, and unquotes the two texts into a pooled scratch
// buffer. The cache key is digested from those bytes; the Net/Library
// strings are built only on a cache miss.
//
// It accepts exactly the bodies json.NewDecoder(body).Decode(&solveRequest)
// accepts and yields the same values (DESIGN §19): keys match exactly,
// then case-insensitively, and the last duplicate wins; null leaves a
// field as it is; unknown keys are validated and skipped; bytes after the
// closing brace are ignored; and every option scalar is decoded by
// json.Unmarshal on its raw bytes.

const (
	// bodyReadAhead bounds how far the body buffer grows beyond the bytes
	// received: at most max(bodyReadAhead, received) ahead. A
	// Content-Length presizes the buffer, but one the client does not
	// honour cannot make the server allocate memory it was never sent.
	bodyReadAhead = 64 << 10
	// maxPooledBuffer is the largest buffer an envelope keeps when it
	// returns to the pool; a rare multi-megabyte body is left to the GC
	// instead of staying resident.
	maxPooledBuffer = 1 << 20
	// maxNestingDepth is encoding/json's nesting limit, counting the
	// top-level object.
	maxNestingDepth = 10000
)

// solveEnvelope is one decoded /v1/solve body. net and library hold the
// unquoted texts; they alias text, which like body belongs to the pool,
// so nothing may keep them past release.
type solveEnvelope struct {
	body         []byte
	text         []byte
	key          []byte // unquoted object key
	net, library []byte
	opts         solveOptions
}

var envelopePool = sync.Pool{New: func() any { return new(solveEnvelope) }}

// readSolveEnvelope reads and decodes a size-limited /v1/solve body. Errors
// map as decodeBody's do: over Config.MaxBodyBytes is a 413, anything
// else a 400. The caller releases the envelope.
func (s *Server) readSolveEnvelope(w http.ResponseWriter, r *http.Request) (*solveEnvelope, error) {
	e := envelopePool.Get().(*solveEnvelope)
	var err error
	e.body, err = readBody(e.body, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err == nil {
		err = e.decode()
	}
	if err != nil {
		e.release()
		return nil, bodyError(err)
	}
	return e, nil
}

// request builds the solveRequest, copying the texts out of the pooled
// buffers.
func (e *solveEnvelope) request() solveRequest {
	return solveRequest{Net: string(e.net), Library: string(e.library), solveOptions: e.opts}
}

// release returns e to the pool.
func (e *solveEnvelope) release() {
	if cap(e.body) > maxPooledBuffer {
		e.body = nil
	}
	if cap(e.text) > maxPooledBuffer {
		e.text = nil
	}
	if cap(e.key) > maxPooledBuffer {
		e.key = nil
	}
	e.net, e.library, e.opts = nil, nil, solveOptions{}
	envelopePool.Put(e)
}

// readBody reads all of r into buf, reusing its storage. contentLength
// (-1 when unknown) presizes the buffer within the bodyReadAhead bound.
func readBody(buf []byte, r io.Reader, contentLength int64) ([]byte, error) {
	if want := nextBodyCap(0, contentLength); cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), nextBodyCap(len(buf), contentLength))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// nextBodyCap is the capacity to grow a body buffer to once it holds
// received bytes: the whole declared body plus one byte for the read that
// sees EOF, when that is within the read-ahead bound.
func nextBodyCap(received int, contentLength int64) int {
	ahead := max(bodyReadAhead, received)
	if rest := contentLength - int64(received); rest >= 0 && rest < int64(ahead) {
		return received + int(rest) + 1
	}
	return received + ahead
}

// envelopeFields are the solveRequest JSON keys, in field-index order.
var envelopeFields = [...]string{"net", "library", "algorithm", "prune", "max_cost", "no_stats", "timeout_ms"}

const (
	fieldNet = iota
	fieldLibrary
	fieldAlgorithm
	fieldPrune
	fieldMaxCost
	fieldNoStats
	fieldTimeoutMs
	fieldUnknown = -1
)

// fieldIndex matches key the way encoding/json does: exactly first, then
// under Unicode case folding.
func fieldIndex(key []byte) int {
	for i, f := range envelopeFields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range envelopeFields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return fieldUnknown
}

// option returns the destination of an option field for json.Unmarshal.
func (e *solveEnvelope) option(field int) any {
	switch field {
	case fieldAlgorithm:
		return &e.opts.Algorithm
	case fieldPrune:
		return &e.opts.Prune
	case fieldMaxCost:
		return &e.opts.MaxCost
	case fieldNoStats:
		return &e.opts.NoStats
	default:
		return &e.opts.TimeoutMs
	}
}

// syntaxError reports an unexpected byte at offset i.
func syntaxError(b []byte, i int, context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", b[i], context, i)
}

// decode walks e.body's top-level object in one pass.
func (e *solveEnvelope) decode() error {
	b := e.body
	e.text = e.text[:0]
	i := skipSpace(b, 0)
	if i == len(b) {
		return io.EOF
	}
	switch {
	case b[i] == '{':
	case bytes.HasPrefix(b[i:], []byte("null")):
		return nil // a null body leaves every field zero
	default:
		return errors.New("request body is not a JSON object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		if i == len(b) {
			return io.ErrUnexpectedEOF
		}
		if b[i] != '"' {
			return syntaxError(b, i, "looking for beginning of object key string")
		}
		var err error
		if e.key, i, err = appendUnquoted(e.key[:0], b, i+1); err != nil {
			return err
		}
		field := fieldIndex(e.key)
		if i = skipSpace(b, i); i == len(b) {
			return io.ErrUnexpectedEOF
		}
		if b[i] != ':' {
			return syntaxError(b, i, "after object key")
		}
		i = skipSpace(b, i+1)
		switch field {
		case fieldNet:
			i, err = e.unquoteText(b, i, &e.net)
		case fieldLibrary:
			i, err = e.unquoteText(b, i, &e.library)
		case fieldUnknown:
			i, err = skipValue(b, i, 1)
		default:
			start := i
			if i, err = skipValue(b, i, 1); err == nil {
				err = json.Unmarshal(b[start:i], e.option(field))
			}
		}
		if err != nil {
			return err
		}
		if i = skipSpace(b, i); i == len(b) {
			return io.ErrUnexpectedEOF
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return nil // bytes after the object are not read
		default:
			return syntaxError(b, i, "after object key:value pair")
		}
	}
}

// unquoteText decodes the string or null at b[i] into *dst, a view of
// e.text. Earlier views stay valid: text only grows past them.
func (e *solveEnvelope) unquoteText(b []byte, i int, dst *[]byte) (int, error) {
	if i < len(b) && b[i] == '"' {
		start := len(e.text)
		var err error
		e.text, i, err = appendUnquoted(e.text, b, i+1)
		*dst = e.text[start:len(e.text):len(e.text)]
		return i, err
	}
	if i < len(b) && b[i] == 'n' {
		return literal(b, i, "null") // null leaves the field as it is
	}
	if _, err := skipValue(b, i, 1); err != nil {
		return i, err
	}
	return i, errors.New("json: cannot unmarshal non-string into a text field of type string")
}

// appendUnquoted decodes the JSON string whose body starts at b[i] (just
// past the opening quote) onto dst, and returns the index past the
// closing quote. Runs of plain bytes are copied whole. Escapes decode as
// encoding/json decodes them: a \uXXXX surrogate pair joins into one rune,
// and a lone surrogate, like each byte of invalid UTF-8, becomes U+FFFD.
func appendUnquoted(dst, b []byte, i int) ([]byte, int, error) {
	for {
		start := i
		i = plainRun(b, i)
		dst = append(dst, b[start:i]...)
		if i == len(b) {
			return dst, i, io.ErrUnexpectedEOF
		}
		switch c := b[i]; {
		case c == '"':
			return dst, i + 1, nil
		case c == '\\':
			if i+1 == len(b) {
				return dst, i, io.ErrUnexpectedEOF
			}
			switch esc := b[i+1]; esc {
			case '"', '\\', '/':
				dst = append(dst, esc)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, err := hex4(b, i+2)
				if err != nil {
					return dst, i, err
				}
				i += 4
				if utf16.IsSurrogate(r) {
					hi := r
					r = unicode.ReplacementChar
					if lo, err := hex4(b, i+4); err == nil && b[i+2] == '\\' && b[i+3] == 'u' {
						if pair := utf16.DecodeRune(hi, lo); pair != unicode.ReplacementChar {
							r = pair
							i += 6
						}
					}
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, i, syntaxError(b, i+1, "in string escape code")
			}
			i += 2
		case c < ' ':
			return dst, i, syntaxError(b, i, "in string literal")
		default: // a byte of invalid UTF-8
			dst = append(dst, string(utf8.RuneError)...)
			i++
		}
	}
}

// plainRun returns the end of the run at b[i:] that a JSON string holds
// verbatim: printable ASCII other than '"' and '\\', and valid UTF-8. It
// tests eight bytes at a time while they are all ASCII.
func plainRun(b []byte, i int) int {
	for {
		for ; i+8 <= len(b); i += 8 {
			if m := specialBytes(binary.LittleEndian.Uint64(b[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
		}
		if i == len(b) {
			return i
		}
		if c := b[i]; c < utf8.RuneSelf {
			if c < ' ' || c == '"' || c == '\\' {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
}

// specialBytes flags, in the high bit of each byte of w, the bytes that end
// a plain ASCII run: controls, '"', '\\' and non-ASCII. Flags above the
// lowest may be spurious (borrows carry upward); the lowest is exact.
func specialBytes(w uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := w^(ones*'"'), w^(ones*'\\')
	return ((w-ones*' ')&^w | (quote-ones)&^quote | (backslash-ones)&^backslash | w) & highs
}

// hex4 decodes the four hex digits at b[i:].
func hex4(b []byte, i int) (rune, error) {
	var r rune
	for j := i; j < i+4; j++ {
		if j >= len(b) {
			return 0, io.ErrUnexpectedEOF
		}
		c := b[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, syntaxError(b, j, "in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipValue validates the JSON value at b[i] and returns the index past
// it. depth counts the containers already open around it.
func skipValue(b []byte, i, depth int) (int, error) {
	if i == len(b) {
		return i, io.ErrUnexpectedEOF
	}
	switch c := b[i]; {
	case c == '"':
		_, i, err := appendUnquoted(nil, b, i+1)
		return i, err
	case c == '{', c == '[':
		if depth++; depth > maxNestingDepth {
			return i, errors.New("exceeded max depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == end {
			return i + 1, nil
		}
		for {
			var err error
			if c == '{' {
				if i == len(b) {
					return i, io.ErrUnexpectedEOF
				}
				if b[i] != '"' {
					return i, syntaxError(b, i, "looking for beginning of object key string")
				}
				if _, i, err = appendUnquoted(nil, b, i+1); err != nil {
					return i, err
				}
				if i = skipSpace(b, i); i == len(b) {
					return i, io.ErrUnexpectedEOF
				}
				if b[i] != ':' {
					return i, syntaxError(b, i, "after object key")
				}
				i = skipSpace(b, i+1)
			}
			if i, err = skipValue(b, i, depth); err != nil {
				return i, err
			}
			if i = skipSpace(b, i); i == len(b) {
				return i, io.ErrUnexpectedEOF
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case end:
				return i + 1, nil
			default:
				if end == '}' {
					return i, syntaxError(b, i, "after object key:value pair")
				}
				return i, syntaxError(b, i, "after array element")
			}
		}
	case c == 't':
		return literal(b, i, "true")
	case c == 'f':
		return literal(b, i, "false")
	case c == 'n':
		return literal(b, i, "null")
	case c == '-', '0' <= c && c <= '9':
		return skipNumber(b, i)
	default:
		return i, syntaxError(b, i, "looking for beginning of value")
	}
}

// skipNumber validates the JSON number at b[i] and returns the index past
// it.
func skipNumber(b []byte, i int) (int, error) {
	if b[i] == '-' {
		i++
	}
	if i == len(b) {
		return i, io.ErrUnexpectedEOF
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, syntaxError(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if b[i] < '0' || b[i] > '9' {
			return i, syntaxError(b, i, "after decimal point in numeric literal")
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if b[i] < '0' || b[i] > '9' {
			return i, syntaxError(b, i, "in exponent of numeric literal")
		}
		i = skipDigits(b, i)
	}
	return i, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literal matches the literal word at b[i].
func literal(b []byte, i int, word string) (int, error) {
	for j := 0; j < len(word); j++ {
		if i+j == len(b) {
			return i + j, io.ErrUnexpectedEOF
		}
		if b[i+j] != word[j] {
			return i + j, syntaxError(b, i+j, "in literal "+word)
		}
	}
	return i + len(word), nil
}
