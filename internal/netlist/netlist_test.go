package netlist

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

const sampleNet = `
# a small Y net
net clk_east
driver res 0.5 k 20
node n1 parent src res 0.4 cap 12 buffer
node n2 parent n1 res 0.1 cap 3 buffer allowed 0,2
node n3 parent n1 res 0 cap 0
sink s1 parent n2 res 0.2 cap 8 load 14 rat 950
sink s2 parent n3 res 0.3 cap 9 load 21 rat 1000 neg
`

func TestParseNetSample(t *testing.T) {
	net, err := ParseNet(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "clk_east" {
		t.Fatalf("Name = %q", net.Name)
	}
	if net.Driver != (delay.Driver{R: 0.5, K: 20}) {
		t.Fatalf("Driver = %+v", net.Driver)
	}
	tr := net.Tree
	if tr.Len() != 6 || tr.NumSinks() != 2 || tr.NumBufferPositions() != 2 {
		t.Fatalf("shape: len=%d sinks=%d pos=%d", tr.Len(), tr.NumSinks(), tr.NumBufferPositions())
	}
	if got := tr.Verts[2].Allowed; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Allowed = %v", got)
	}
	s2 := tr.Sinks()[1]
	if tr.Verts[s2].Pol != tree.Negative || tr.Verts[s2].Cap != 21 || tr.Verts[s2].RAT != 1000 {
		t.Fatalf("sink s2 = %+v", tr.Verts[s2])
	}
	if tr.Verts[3].EdgeR != 0 || tr.Verts[3].EdgeC != 0 {
		t.Fatalf("zero-RC edge lost: %+v", tr.Verts[3])
	}
}

func TestNetWriteParseFixedPoint(t *testing.T) {
	net, err := ParseNet(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := WriteNet(&buf1, net); err != nil {
		t.Fatal(err)
	}
	net2, err := ParseNet(&buf1)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var buf2 bytes.Buffer
	if err := WriteNet(&buf2, net2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" || buf2.String() != mustWrite(t, net) {
		t.Fatalf("write∘parse not a fixed point:\n%s\nvs\n%s", mustWrite(t, net), buf2.String())
	}
	if !reflect.DeepEqual(net.Tree.Verts, net2.Tree.Verts) {
		t.Fatal("vertex data changed across round trip")
	}
}

func mustWrite(t *testing.T, net *Net) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteNet(&b, net); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestNetRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		tr := netgen.Random(netgen.Opts{Sinks: int(seed%17+17)%17 + 1, Seed: seed, NegativeSinkProb: 0.3})
		net := &Net{Name: "rnd", Tree: tr, Driver: delay.Driver{R: 0.25, K: 3}}
		var b bytes.Buffer
		if WriteNet(&b, net) != nil {
			return false
		}
		got, err := ParseNet(&b)
		if err != nil {
			return false
		}
		if got.Driver != net.Driver || got.Name != net.Name {
			return false
		}
		// Structure and parameters must survive exactly (names are
		// canonicalized by the writer, so compare everything else).
		a, c := tr.Verts, got.Tree.Verts
		if len(a) != len(c) {
			return false
		}
		for i := range a {
			x, y := a[i], c[i]
			x.Name, y.Name = "", ""
			if x.Allowed == nil {
				x.Allowed = []int{}
			}
			if y.Allowed == nil {
				y.Allowed = []int{}
			}
			if !reflect.DeepEqual(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// errBoom is the failure of failingReader.
var errBoom = errors.New("boom")

// failingReader yields in and then fails with errBoom.
func failingReader(in string) io.Reader {
	return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errBoom))
}

// TestParseNetErrors pins ParseNet's behaviour line by line. A row with a
// want message must fail with exactly that error; a row with want empty
// must parse to the same net as its same input, names included.
func TestParseNetErrors(t *testing.T) {
	const tail = "sink s parent n1 res 0 cap 0 load 1 rat 1\n"
	const ok = "net x\ndriver res 0.5 k 20\nnode n1 parent src res 0.4 cap 12 buffer allowed 0,2\n" + tail
	many := "" // 20 unknown pairs: more than a pairwise duplicate scan should take
	for k := "x"; len(k) <= 20; k += "x" {
		many += " " + k + " 1"
	}
	cases := []struct {
		name, in, want string
		same           string // for accepted inputs: the reference text
		failRead       bool   // the reader fails with errBoom after in
	}{
		// Rejected inputs, one per error branch.
		{name: "unknown directive", in: "frobnicate x\n", want: `netlist: line 1: unknown directive "frobnicate"`},
		{name: "net without name", in: "net\n", want: "netlist: line 1: want: net <name>"},
		{name: "net with two names", in: "net a b\n", want: "netlist: line 1: want: net <name>"},
		{name: "driver dangling token", in: "driver res\n", want: `netlist: line 1: dangling token "res"`},
		{name: "driver duplicate key", in: "driver res 1 res 2\n", want: `netlist: line 1: duplicate key "res"`},
		{name: "driver bad res", in: "driver res x\n", want: `netlist: line 1: bad res value "x"`},
		{name: "driver bad k", in: "driver res 1 k 1e400x\n", want: `netlist: line 1: bad k value "1e400x"`},
		{name: "driver flag is a token", in: "driver res 1 buffer\n", want: `netlist: line 1: dangling token "buffer"`},
		{name: "driver invalid", in: "net x\n\ndriver k -1\n", want: "netlist: line 3: delay: invalid driver: res 0 and k -1 must be finite and non-negative"},
		{name: "missing vertex name", in: "node\n", want: "netlist: line 1: missing vertex name"},
		{name: "duplicate vertex", in: "node a parent src res 1 cap 1\nnode a parent src res 1 cap 1\nsink s parent a res 0 cap 0 load 1 rat 1\n", want: `netlist: line 2: duplicate vertex "a"`},
		{name: "src is taken", in: "node src parent src\n", want: `netlist: line 1: duplicate vertex "src"`},
		{name: "unknown parent", in: "node a parent nope res 1 cap 1\n", want: `netlist: line 1: unknown parent "nope" (parents must be declared first)`},
		{name: "parent declared later", in: "sink s parent a load 1 rat 1\nnode a parent src\n", want: `netlist: line 1: unknown parent "a" (parents must be declared first)`},
		{name: "missing parent", in: "node a res 1 cap 1\n", want: "netlist: line 1: missing parent"},
		{name: "dangling token", in: "node a parent src res\n", want: `netlist: line 1: dangling token "res"`},
		{name: "dangling before duplicate", in: "node a parent src res 1 res\n", want: `netlist: line 1: dangling token "res"`},
		{name: "duplicate key", in: "node a parent src res 1 res 2 cap 1\n", want: `netlist: line 1: duplicate key "res"`},
		{name: "duplicate unknown key", in: "node a parent src foo 1 foo 2\n", want: `netlist: line 1: duplicate key "foo"`},
		{name: "duplicate key on a long line", in: "node a parent src" + many + " xxx 2\n", want: `netlist: line 1: duplicate key "xxx"`},
		{name: "first duplicate wins", in: "node a cap 1 res 1 parent src res 2 cap 2\n", want: `netlist: line 1: duplicate key "res"`},
		{name: "bad float", in: "node a parent src res abc cap 1\n", want: `netlist: line 1: bad res value "abc"`},
		{name: "bad cap", in: "node a parent src res 1 cap 1..2\n", want: `netlist: line 1: bad cap value "1..2"`},
		{name: "bad load", in: "sink s parent src load x rat 5\n", want: `netlist: line 1: bad load value "x"`},
		{name: "bad rat", in: "sink s parent src load 1 rat 5ps\n", want: `netlist: line 1: bad rat value "5ps"`},
		{name: "sink missing load", in: "sink s parent src res 0 cap 0 rat 5\n", want: "netlist: line 1: missing load"},
		{name: "sink missing rat", in: "sink s parent src res 0 cap 0 load 5\n", want: "netlist: line 1: missing rat"},
		{name: "buffered sink", in: "sink s parent src res 0 cap 0 load 5 rat 5 buffer\n", want: "netlist: line 1: a sink cannot be a buffer position"},
		{name: "neg on node", in: "node a parent src res 1 cap 1 neg\n", want: "netlist: line 1: neg applies to sinks only"},
		{name: "allowed without buffer", in: "node a parent src res 1 cap 1 allowed 1\n", want: "netlist: line 1: allowed requires buffer"},
		{name: "bad allowed", in: "node a parent src res 1 cap 1 buffer allowed x\n", want: `netlist: line 1: bad allowed index "x"`},
		{name: "empty allowed index", in: "node a parent src buffer allowed 1,,2\n", want: `netlist: line 1: bad allowed index ""`},
		{name: "trailing allowed comma", in: "node a parent src buffer allowed 1,\n", want: `netlist: line 1: bad allowed index ""`},
		{name: "negative allowed", in: "node a parent src buffer allowed 0,-1\n", want: `netlist: line 1: bad allowed index "-1"`},
		{name: "comment glued to a name cuts the line", in: "node n1#z parent src\n", want: "netlist: line 1: missing parent"},
		{name: "flag word as a parent value", in: "sink buffer parent src load 1 rat 2\nsink s parent buffer load 1 rat 2\n", want: `netlist: line 2: dangling token "2"`},
		{name: "allowed at end", in: "node a parent src res 1 cap 1 buffer allowed\n", want: "netlist: line 1: allowed needs a comma-separated index list"},
		{name: "allowed before pairs", in: "node a allowed parent src res 1\n", want: `netlist: line 1: bad allowed index "parent"`},
		{name: "negative edge", in: "node a parent src res 1 cap -1\n", want: "netlist: line 1: tree: vertex 1: negative edge RC (1, -1)"},
		{name: "negative load", in: "sink s parent src load -1 rat 5\n", want: "netlist: line 1: tree: sink below 0: negative capacitance -1"},
		{name: "parent is a sink", in: "sink s parent src load 1 rat 5\nsink t parent s load 1 rat 5\n", want: "netlist: line 2: tree: vertex 2: parent 1 is a sink"},
		{name: "empty tree", in: "# nothing\n", want: "netlist: tree: source has no children"},
		{name: "empty input", in: "", want: "netlist: tree: source has no children"},
		{name: "leaf internal", in: "node a parent src res 1 cap 1\n", want: "netlist: tree: internal vertex 1 is a leaf (leaves must be sinks)"},
		{name: "line numbers count blank and comment lines", in: "net x\n\n# c\n  \t\nbogus y\n", want: `netlist: line 5: unknown directive "bogus"`},
		{name: "line numbers with CRLF", in: "net x\r\n\r\nbogus\r\n", want: `netlist: line 3: unknown directive "bogus"`},
		{name: "error on last line without newline", in: ok + "bogus", want: `netlist: line 5: unknown directive "bogus"`},
		{name: "read error", in: ok, failRead: true, want: "netlist: read: boom"},

		// Accepted inputs the tokenizer must read as the reference text.
		{name: "reference", in: ok, same: ok},
		{name: "CRLF", in: strings.ReplaceAll(ok, "\n", "\r\n"), same: ok},
		{name: "tabs and runs of spaces", in: "\tnet\tx\ndriver  res 0.5\t\tk 20 \nnode n1\v parent\fsrc res 0.4 cap 12 buffer allowed 0,2\n" + tail, same: ok},
		{name: "unicode spaces", in: "net\u00a0x\ndriver res 0.5\u2003k 20\nnode n1 parent src res 0.4 cap 12 buffer allowed 0,2\u0085\n" + tail, same: ok},
		{name: "no final newline", in: strings.TrimSuffix(ok, "\n"), same: ok},
		{name: "comments", in: "# head\nnet x # name\ndriver res 0.5 k 20#glued\nnode n1 parent src res 0.4 cap 12 buffer allowed 0,2#\n" + tail + "#", same: ok},
		{name: "comment glued to tokens", in: "net x#y\ndriver res 0.5 k 20\nnode n1 parent src res 0.4 cap 12 buffer allowed 0,2#3\nsink s parent n1 res 0 cap 0 load 1 rat 1#\n", same: ok},
		{name: "flags among pairs", in: "net x\ndriver res 0.5 k 20\nnode n1 buffer parent src res 0.4 allowed 0,2 cap 12\n" + tail, same: ok},
		{name: "flags in front", in: "net x\ndriver res 0.5 k 20\nnode n1 allowed 0,2 buffer parent src res 0.4 cap 12\n" + tail, same: ok},
		{name: "neg among pairs", in: "sink s neg parent src load 1 rat 2\n", same: "sink s parent src load 1 rat 2 neg\n"},
		{name: "repeated flags and allowed lists", in: "node n parent src buffer allowed 3 buffer allowed 1,2\nsink s parent n neg load 1 neg rat 2\n", same: "node n parent src buffer allowed 3,1,2\nsink s parent n load 1 rat 2 neg\n"},
		{name: "unknown keys are ignored", in: "net x\ndriver res 0.5 k 20 slew 3\nnode n1 parent src layer m3 res 0.4 cap 12 buffer allowed 0,2\nsink s parent n1 res 0 cap 0 load 1 rat 1 pin A\n", same: ok},
		{name: "long line of unknown keys", in: "sink s parent src load 1 rat 2" + many + "\n", same: "sink s parent src load 1 rat 2\n"},
		{name: "defaults", in: "driver\nsink s parent src load 1 rat 2\n", same: "driver res 0 k 0\nsink s parent src res 0 cap 0 load 1 rat 2\n"},
		{name: "last net and driver win", in: "net a\nnet x\ndriver res 9\ndriver res 0.5 k 20\nnode n1 parent src res 0.4 cap 12 buffer allowed 0,2\n" + tail, same: ok},
		{name: "flag words as names", in: "sink buffer parent src load 1 rat 2\nsink neg parent src load 1 rat 2\n", same: "sink buffer parent src load 1 rat 2\nsink neg parent src load 1 rat 2\n"},
		{name: "number spellings", in: "sink s parent src res 1e-1 cap .5 load +2 rat 0x10p0\n", same: "sink s parent src res 0.1 cap 0.5 load 2 rat 16\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := io.Reader(strings.NewReader(tc.in))
			if tc.failRead {
				r = failingReader(tc.in)
			}
			net, err := ParseNet(r)
			if tc.want != "" {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if tc.failRead && !errors.Is(err, errBoom) {
					t.Fatalf("err = %v does not wrap the read error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want the net of %q", err, tc.same)
			}
			ref, err := ParseNet(strings.NewReader(tc.same))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if net.Name != ref.Name || net.Driver != ref.Driver || !reflect.DeepEqual(net.Tree.Verts, ref.Tree.Verts) {
				t.Fatalf("parsed %+v %+v\nwant %+v %+v", net, net.Tree.Verts, ref, ref.Tree.Verts)
			}
		})
	}
}

func TestParseNetReportsLineNumbers(t *testing.T) {
	_, err := ParseNet(strings.NewReader("net x\n\nbogus y\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3", err)
	}
}

const sampleLib = `
# two types
buffer buf1 res 7 cin 0.7 delay 29 cost 1
buffer inv1 res 3.5 cin 1.5 delay 30 cost 2 inverting
`

func TestParseLibrarySample(t *testing.T) {
	lib, err := ParseLibrary(strings.NewReader(sampleLib))
	if err != nil {
		t.Fatal(err)
	}
	want := library.Library{
		{Name: "buf1", R: 7, Cin: 0.7, K: 29, Cost: 1},
		{Name: "inv1", R: 3.5, Cin: 1.5, K: 30, Cost: 2, Inverting: true},
	}
	if !reflect.DeepEqual(lib, want) {
		t.Fatalf("lib = %+v", lib)
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	for _, lib := range []library.Library{
		library.Generate(8),
		library.GenerateWithInverters(16),
		{{Name: "", R: 1.25, Cin: 2.5, K: 0}},
	} {
		var b bytes.Buffer
		if err := WriteLibrary(&b, lib); err != nil {
			t.Fatal(err)
		}
		got, err := ParseLibrary(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(lib) {
			t.Fatalf("length %d vs %d", len(got), len(lib))
		}
		for i := range lib {
			w := lib[i]
			if w.Name == "" {
				w.Name = "b0"
			}
			if got[i] != w {
				t.Fatalf("type %d: %+v vs %+v", i, got[i], w)
			}
		}
	}
}

// TestParseLibraryErrors pins ParseLibrary's behaviour line by line, in
// the same form as TestParseNetErrors.
func TestParseLibraryErrors(t *testing.T) {
	const ok = "buffer b1 res 7 cin 0.7 delay 29 cost 1\nbuffer i1 res 3.5 cin 1.5 delay 30 cost 2 inverting\n"
	cases := []struct {
		name, in, want string
		same           string // for accepted inputs: the reference text
		failRead       bool   // the reader fails with errBoom after in
	}{
		// Rejected inputs, one per error branch.
		{name: "unknown directive", in: "net x\n", want: `netlist: line 1: unknown directive "net"`},
		{name: "no name", in: "buffer\n", want: "netlist: line 1: missing buffer name"},
		{name: "dangling token", in: "buffer b res 1 cin\n", want: `netlist: line 1: dangling token "cin"`},
		{name: "duplicate key", in: "buffer b res 1 cin 1 res 2\n", want: `netlist: line 1: duplicate key "res"`},
		{name: "duplicate unknown key", in: "buffer b res 1 cin 1 vt lvt vt hvt\n", want: `netlist: line 1: duplicate key "vt"`},
		{name: "missing res", in: "buffer b cin 1\n", want: "netlist: line 1: missing res"},
		{name: "missing cin", in: "buffer b res 1\n", want: "netlist: line 1: missing cin"},
		{name: "bad res", in: "buffer b res r cin 1\n", want: `netlist: line 1: bad res value "r"`},
		{name: "bad cin", in: "buffer b res 1 cin 1,5\n", want: `netlist: line 1: bad cin value "1,5"`},
		{name: "bad delay", in: "buffer b res 1 cin 1 delay -\n", want: `netlist: line 1: bad delay value "-"`},
		{name: "bad cost", in: "buffer b res 1 cin 1 cost one\n", want: `netlist: line 1: bad cost value "one"`},
		{name: "fractional cost", in: ok + "\nbuffer b res 1 cin 1 cost 1.5\n", want: "netlist: line 4: cost must be a nonnegative integer, got 1.5"},
		{name: "negative cost", in: "buffer b res 1 cin 1 cost -1\n", want: "netlist: line 1: cost must be a nonnegative integer, got -1"},
		{name: "invalid electrical", in: "buffer b res -1 cin 1\n", want: "library: library type 0: invalid R: (b) driving resistance -1 must be positive and finite"},
		{name: "invalid second type", in: ok + "buffer c res 1 cin 0\n", want: "library: library type 2: invalid Cin: (c) input capacitance 0 must be positive and finite"},
		{name: "empty", in: "\n", want: "library: invalid size: empty library"},
		{name: "comments only", in: "# none\r\n", want: "library: invalid size: empty library"},
		{name: "line numbers with CRLF", in: "buffer b res 1 cin 1\r\n\r\nbuffer\r\n", want: "netlist: line 3: missing buffer name"},
		{name: "read error", in: ok, failRead: true, want: "netlist: read: boom"},

		// Accepted inputs the tokenizer must read as the reference text.
		{name: "reference", in: ok, same: ok},
		{name: "CRLF", in: strings.ReplaceAll(ok, "\n", "\r\n"), same: ok},
		{name: "tabs", in: "buffer\tb1\tres 7 cin\t\t0.7 delay 29 cost 1\n\tbuffer i1 res 3.5 cin 1.5 delay 30 cost 2 inverting\t\n", same: ok},
		{name: "no final newline", in: strings.TrimSuffix(ok, "\n"), same: ok},
		{name: "comments", in: "# lib\nbuffer b1 res 7 cin 0.7 delay 29 cost 1#glued\nbuffer i1 res 3.5 cin 1.5 delay 30 cost 2 inverting # tail\n", same: ok},
		{name: "inverting anywhere", in: "buffer b1 res 7 cin 0.7 delay 29 cost 1\nbuffer i1 inverting res 3.5 cin 1.5 delay 30 cost 2\n", same: ok},
		{name: "inverting between key and value", in: "buffer b1 res 7 cin 0.7 delay 29 cost 1\nbuffer i1 res inverting 3.5 cin 1.5 delay 30 cost 2\n", same: ok},
		{name: "unknown keys are ignored", in: "buffer b1 res 7 vt lvt cin 0.7 delay 29 cost 1\nbuffer i1 res 3.5 cin 1.5 delay 30 cost 2 inverting area 4\n", same: ok},
		{name: "defaults", in: "buffer b res 1 cin 2\n", same: "buffer b res 1 cin 2 delay 0 cost 0\n"},
		{name: "inverting as a name", in: "buffer inverting res 1 cin 2\n", same: "buffer inverting res 1 cin 2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := io.Reader(strings.NewReader(tc.in))
			if tc.failRead {
				r = failingReader(tc.in)
			}
			lib, err := ParseLibrary(r)
			if tc.want != "" {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if tc.failRead && !errors.Is(err, errBoom) {
					t.Fatalf("err = %v does not wrap the read error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want the library of %q", err, tc.same)
			}
			ref, err := ParseLibrary(strings.NewReader(tc.same))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !reflect.DeepEqual(lib, ref) {
				t.Fatalf("parsed %+v, want %+v", lib, ref)
			}
		})
	}
}

// TestParseNetReportsBadVertexCause: a vertex the tree builder rejects fails
// on its own line with the builder's reason, not later as an unknown
// parent when a child names it.
func TestParseNetReportsBadVertexCause(t *testing.T) {
	in := "node n1 parent src res -0.03 cap 12 buffer\nsink s1 parent n1 res 0.1 cap 1 load 2 rat 100\n"
	_, err := ParseNet(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "negative edge RC") {
		t.Fatalf("err = %v, want line 1 and the negative edge RC", err)
	}
	if strings.Contains(err.Error(), "unknown parent") {
		t.Fatalf("err = %v reports the symptom, not the cause", err)
	}
}

// TestParseNetRejectsBadDriver: a negative or non-finite driver is a typed
// validation error naming the driver field and the line.
func TestParseNetRejectsBadDriver(t *testing.T) {
	for _, drv := range []string{"res -0.2 k 15", "res 0.2 k -15", "res inf k 1", "res 0.2 k NaN"} {
		in := "net x\ndriver " + drv + "\nsink s parent src res 0.1 cap 1 load 2 rat 100\n"
		_, err := ParseNet(strings.NewReader(in))
		var verr *solvererr.ValidationError
		if !errors.As(err, &verr) || verr.Field != "driver" || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("driver %q: err = %v, want a driver ValidationError on line 2", drv, err)
		}
	}
}
