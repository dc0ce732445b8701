package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"bufferkit/internal/server/cache"
)

// envelopeCap is the body limit the differential harness reads under, so
// the seeds can straddle it cheaply.
const envelopeCap = 64 << 10

// envelopeSeeds are the differential corpus and the FuzzSolveEnvelope
// seeds: every escape, surrogate pairs and lone surrogates, raw invalid
// UTF-8 and control bytes, key variants, duplicates and nulls, unknown
// keys holding nested values, option scalars of every JSON type, and the
// malformed, truncated and trailing shapes around the object.
var envelopeSeeds = []string{
	// Escapes.
	`{"net":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
	`{"net":"\u0041\u00e9\u2028\u2029\uFFFD\u0000\u001f"}`,
	`{"net":"\u003cnet\u003e \u0026"}`,
	`{"net":"\ud83d\ude00 pair","library":"\uD83D\uDE00"}`,
	`{"net":"\ud83d lone high"}`,
	`{"net":"\ude00 lone low"}`,
	`{"net":"\ud83d\ud83d two highs \ud83d\ude00"}`,
	`{"net":"\ud83d\u0041 high then BMP"}`,
	`{"net":"\ud83d\n high then short escape"}`,
	`{"net":"\ud83d"}`,
	`{"net":"\ud83d\u12"}`,
	`{"net":"\ud83d\\u0041"}`,
	"{\"net\":\"raw \xff\xfe invalid\"}",
	"{\"net\":\"cut \xe2\x82\"}",
	"{\"net\":\"encoded surrogate \xed\xa0\x80\"}",
	"{\"net\":\"valid é € \xf0\x9f\x98\x80 \xef\xbf\xbd\"}",
	"{\"x\":\"\xff\",\"net\":\"a\"}",
	"{\"net\":\"control \x01\"}",
	"{\"net\":\"raw tab \t\"}",
	"{\"net\":\"raw newline \n\"}",
	"{\"net\":\"del \x7f\"}",
	`{"net":"bad \x escape"}`,
	`{"net":"bad \' escape"}`,
	`{"net":"short \u12"}`,
	`{"net":"bad \u12g4 hex"}`,
	`{"net":"ends in escape\`,
	`{"net":"unterminated`,
	// Keys.
	`{"NET":"a","Library":"b"}`,
	`{"nEt":"a","LIBRARY":"b","ALGORITHM":"lillis","Prune":"destructive"}`,
	`{"net":"a","NET":"b"}`,
	`{"NET":"a","net":"b"}`,
	`{"ne\u0074":"escaped key"}`,
	`{"n\u0045t":"escaped folded key"}`,
	"{\"no_\u017ftats\":true}",
	"{\"net\u00a0\":\"near miss\"}",
	`{"MAX_COST":3,"Timeout_Ms":7,"NO_STATS":true}`,
	`{"net":"a","net":"b"}`,
	`{"net":"a","net":null}`,
	`{"net":null,"net":"b"}`,
	`{"net":null,"library":null}`,
	`{"algorithm":null,"prune":null,"max_cost":null,"no_stats":null,"timeout_ms":null}`,
	`{"max_cost":3,"max_cost":null}`,
	`{"":1,"net":"a"}`,
	// Unknown keys.
	`{"x":[1,[2,{"a":[]}],{"b":{"c":null}}],"net":"a"}`,
	`{"x":{"y":[true,false,null,-0.5e+3,"s\u0041",{}]},"library":"b"}`,
	`{"backend":"soa","net":"a"}`,
	`{"x":[1,2,]}`,
	`{"x":[1 2]}`,
	`{"x":{"a" 1}}`,
	`{"x":{"a":1,}}`,
	`{"x":{1:2}}`,
	`{"x":[}`,
	`{"x":{]}`,
	`{"x":tru}`,
	`{"x":truex}`,
	`{"x":nulL}`,
	`{"x":falsey}`,
	// Option scalars.
	`{"max_cost":1e2}`,
	`{"max_cost":1.5}`,
	`{"max_cost":"3"}`,
	`{"max_cost":3}`,
	`{"max_cost":-0}`,
	`{"max_cost":-7}`,
	`{"max_cost":99999999999999999999}`,
	`{"max_cost":[3]}`,
	`{"timeout_ms":50,"no_stats":true,"algorithm":"lillis","prune":"destructive"}`,
	`{"no_stats":"true"}`,
	`{"no_stats":1}`,
	`{"no_stats":false}`,
	`{"algorithm":5}`,
	`{"algorithm":"l\u0069llis"}`,
	`{"algorithm":{"a":1}}`,
	`{"timeout_ms":1E+2}`,
	// Text fields of the wrong type.
	`{"net":5}`,
	`{"net":true}`,
	`{"net":{}}`,
	`{"net":[]}`,
	`{"library":["a"]}`,
	`{"net":nul}`,
	`{"net":nullx}`,
	`{"net":-}`,
	// Numbers.
	`{"x":01}`,
	`{"x":-01}`,
	`{"x":1.}`,
	`{"x":.5}`,
	`{"x":1e}`,
	`{"x":1e+}`,
	`{"x":+1}`,
	`{"x":-}`,
	`{"x":0.5E-07}`,
	`{"x":-0}`,
	// The top level.
	``,
	" \t\r\n",
	`{}`,
	" \t\r\n{ \"net\" : \"a\" ,\n\"library\":\"b\" } ",
	`null`,
	`nullx`,
	`null}`,
	`nul`,
	`  null  `,
	`[]`,
	`"net"`,
	`1`,
	`true`,
	"\ufeff{}",
	`{"net":"a"}trailing`,
	`{"net":"a"} {"net":"b"}`,
	`{"net":"a"}}`,
	`{"net":"a"`,
	`{"net":"a",`,
	`{"net":"a",}`,
	`{"net"}`,
	`{"net" "a"}`,
	`{"net":}`,
	`{,}`,
	`{"net":"a" "library":"b"}`,
	`{"net":"a";"library":"b"}`,
	`{net:"a"}`,
	`{'net':'a'}`,
	// Nesting at and past encoding/json's depth limit.
	`{"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, maxNestingDepth-1) + `1` + strings.Repeat("}", maxNestingDepth-1) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, maxNestingDepth) + `1` + strings.Repeat("}", maxNestingDepth) + `}`,
	// Bodies at and one byte over the cap.
	`{"net":"` + strings.Repeat("a", envelopeCap-10) + `"}`,
	`{"net":"` + strings.Repeat("a", envelopeCap-9) + `"}`,
}

// decodeEnvelope reads body through the envelope's reader under
// envelopeCap and decodes it into a solveRequest.
func decodeEnvelope(body []byte) (solveRequest, error) {
	var e solveEnvelope
	var err error
	e.body, err = readBody(nil, http.MaxBytesReader(nil, io.NopCloser(iotest.HalfReader(bytes.NewReader(body))), envelopeCap), -1)
	if err == nil {
		err = e.decode()
	}
	return e.request(), err
}

// checkEnvelope is the differential oracle: under the cap, the envelope
// decoder accepts exactly what encoding/json's Decoder accepts and yields
// the same request; over it, the body is refused as too large.
func checkEnvelope(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeEnvelope(body)
	if len(body) > envelopeCap {
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			t.Fatalf("%d-byte body over the %d-byte cap: err %v, want *http.MaxBytesError", len(body), envelopeCap, err)
		}
		return
	}
	var want solveRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q: envelope err %v, encoding/json err %v", body, err, wantErr)
	case err == nil && got != want:
		t.Fatalf("body %q:\nenvelope      %+v\nencoding/json %+v", body, got, want)
	}
}

// TestSolveEnvelopeMatchesEncodingJSON runs the oracle over the seeds, a
// marshaled service request, and seeded mutations of both: byte flips,
// insertions of JSON punctuation and deletions.
func TestSolveEnvelopeMatchesEncodingJSON(t *testing.T) {
	seeds := make([][]byte, 0, len(envelopeSeeds)+2)
	for _, s := range envelopeSeeds {
		seeds = append(seeds, []byte(s))
	}
	netT, libT := readTestdata(t, "line.net"), readTestdata(t, "lib8.buf")
	marshaled, err := json.Marshal(solveRequest{Net: netT, Library: libT[:200],
		solveOptions: solveOptions{Algorithm: "new", MaxCost: 4, TimeoutMs: 100}})
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, marshaled[:min(len(marshaled), envelopeCap)])
	for _, body := range seeds {
		checkEnvelope(t, body)
	}
	const alphabet = "{}[]\":,\\ u0123456789abcdefnulltrue-+.eE\xff\xed\x01\t\n"
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20000; round++ {
		body := bytes.Clone(seeds[rng.Intn(len(seeds))])
		for edits := 1 + rng.Intn(3); edits > 0 && len(body) > 0 && len(body) < 1<<16; edits-- {
			i := rng.Intn(len(body))
			switch rng.Intn(3) {
			case 0:
				body[i] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				body = append(body[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, body[i:]...)...)
			default:
				body = append(body[:i], body[i+1:]...)
			}
		}
		checkEnvelope(t, body)
	}
}

func FuzzSolveEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkEnvelope)
}

// TestSolveEnvelopeKeyGolden pins the cache key of line.net + lib8.buf
// under default options to the digest encoding/json-decoded requests
// produced, so cached entries and fleet routing are unchanged.
func TestSolveEnvelopeKeyGolden(t *testing.T) {
	want := cache.Key{Options: "algo=new prune=transient maxcost=0 stats=true"}
	hex.Decode(want.Net[:], []byte("258fc98a6f0c30ff942390c7ec33823c21e05b816359990ebc870803fafef47f"))
	hex.Decode(want.Library[:], []byte("7ec24a2c1bfa17c085eb6f837eaefaa284bfc3e20fafa4290a727659b22fcb9f"))

	body, err := json.Marshal(solveRequest{Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf")})
	if err != nil {
		t.Fatal(err)
	}
	e := solveEnvelope{body: body}
	if err := e.decode(); err != nil {
		t.Fatal(err)
	}
	if got := cache.NewKey(e.net, e.library, e.opts.cacheOptions()); got != want {
		t.Fatalf("key %x/%x %q, want %x/%x %q", got.Net, got.Library, got.Options, want.Net, want.Library, want.Options)
	}
	// The handler stores its result under the same key.
	s := New(Config{})
	if rec := post(t, s.Handler(), "/v1/solve", json.RawMessage(body)); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if _, ok := s.cache.Get(want); !ok {
		t.Fatal("solve result is not cached under the golden key")
	}
}

// TestReadBodyReadAhead: a Content-Length presizes the body buffer
// exactly, but one the client does not honour grows it by at most
// bodyReadAhead beyond the bytes received.
func TestReadBodyReadAhead(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 10<<10)
	buf, err := readBody(nil, bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(buf, body) || cap(buf) != len(body)+1 {
		t.Fatalf("honest Content-Length: len %d cap %d err %v, want len %d cap %d", len(buf), cap(buf), err, len(body), len(body)+1)
	}
	buf, err = readBody(nil, strings.NewReader("{}"), 16<<20)
	if err != nil || string(buf) != "{}" || cap(buf) > bodyReadAhead {
		t.Fatalf("inflated Content-Length: %q cap %d err %v, want cap <= %d", buf, cap(buf), err, bodyReadAhead)
	}
	big := bytes.Repeat([]byte("y"), 300<<10)
	buf, err = readBody(buf, iotest.HalfReader(bytes.NewReader(big)), -1)
	if err != nil || !bytes.Equal(buf, big) || cap(buf) > 2*len(big) {
		t.Fatalf("unknown length: len %d cap %d err %v", len(buf), cap(buf), err)
	}
}

// TestSolveBodyAtCap: /v1/solve takes a body of exactly MaxBodyBytes and
// refuses one byte more with 413.
func TestSolveBodyAtCap(t *testing.T) {
	const limit = 256
	h := New(Config{MaxBodyBytes: limit}).Handler()
	for _, size := range []int{limit, limit + 1} {
		body := `{"net":"` + strings.Repeat("x", size-10) + `"}`
		rec := post(t, h, "/v1/solve", json.RawMessage(body))
		if tooBig := rec.Code == http.StatusRequestEntityTooLarge; tooBig != (size > limit) {
			t.Fatalf("%d-byte body under a %d-byte cap: status %d", size, limit, rec.Code)
		}
	}
}

// TestPlainRunEveryByte checks the eight-byte scan against the byte rule:
// each byte value, at each offset of two words of plain ASCII, ends the run
// exactly when it is a control, '"', '\\' or the start of invalid UTF-8.
func TestPlainRunEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		for p := 0; p < 16; p++ {
			b := bytes.Repeat([]byte("a"), 16)
			b[p] = byte(c)
			want := len(b)
			if c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
				want = p
			}
			if got := plainRun(b, 0); got != want {
				t.Fatalf("byte %#x at %d: run ends at %d, want %d", c, p, got, want)
			}
		}
	}
}
