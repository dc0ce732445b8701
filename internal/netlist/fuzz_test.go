package netlist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzNetRoundTrip asserts WriteNet is a canonicalizing inverse of
// ParseNet: anything ParseNet accepts must serialize, re-parse, and
// re-serialize to the identical bytes (write∘parse is a fixed point), with
// the tree structure preserved. Seeded with the repository's testdata
// nets.
func FuzzNetRoundTrip(f *testing.F) {
	for _, name := range []string{"line.net", "random12.net"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("net tiny\ndriver res 0.2 k 15\nnode n1 parent src res 0.4 cap 12 buffer\nsink s1 parent n1 res 0.2 cap 8 load 14 rat 950\n")

	f.Fuzz(func(t *testing.T, in string) {
		net, err := ParseNet(bytes.NewReader([]byte(in)))
		if err != nil {
			t.Skip() // invalid inputs are ParseNet's to reject, not ours
		}
		var first bytes.Buffer
		if err := WriteNet(&first, net); err != nil {
			t.Fatalf("WriteNet rejected a parsed net: %v", err)
		}
		net2, err := ParseNet(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ParseNet rejected WriteNet output: %v\n%s", err, first.String())
		}
		if net2.Name != net.Name || net2.Driver != net.Driver {
			t.Fatalf("round trip changed name/driver: %+v vs %+v", net2, net)
		}
		if got, want := net2.Tree.Len(), net.Tree.Len(); got != want {
			t.Fatalf("round trip changed vertex count: %d != %d", got, want)
		}
		for i := range net.Tree.Verts {
			a, b := &net.Tree.Verts[i], &net2.Tree.Verts[i]
			if a.Parent != b.Parent || a.Kind != b.Kind || a.Pol != b.Pol ||
				a.BufferOK != b.BufferOK || !slices.Equal(a.Allowed, b.Allowed) ||
				a.EdgeR != b.EdgeR || a.EdgeC != b.EdgeC ||
				a.Cap != b.Cap || a.RAT != b.RAT {
				t.Fatalf("round trip changed vertex %d: %+v vs %+v", i, a, b)
			}
		}
		var second bytes.Buffer
		if err := WriteNet(&second, net2); err != nil {
			t.Fatalf("second WriteNet failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteNet is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
				first.String(), second.String())
		}
	})
}

// FuzzLibraryRoundTrip asserts the same of WriteLibrary and ParseLibrary:
// any library ParseLibrary accepts re-parses from its written form to the
// same buffer types, and writing that again gives the identical bytes.
// Seeded with the repository's testdata library and sampleLib.
func FuzzLibraryRoundTrip(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lib8.buf"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
	f.Add(sampleLib)

	f.Fuzz(func(t *testing.T, in string) {
		lib, err := ParseLibrary(strings.NewReader(in))
		if err != nil {
			t.Skip() // invalid inputs are ParseLibrary's to reject, not ours
		}
		var first bytes.Buffer
		if err := WriteLibrary(&first, lib); err != nil {
			t.Fatalf("WriteLibrary rejected a parsed library: %v", err)
		}
		lib2, err := ParseLibrary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ParseLibrary rejected WriteLibrary output: %v\n%s", err, first.String())
		}
		if !slices.Equal(lib, lib2) {
			t.Fatalf("round trip changed the library: %+v vs %+v", lib2, lib)
		}
		var second bytes.Buffer
		if err := WriteLibrary(&second, lib2); err != nil {
			t.Fatalf("second WriteLibrary failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteLibrary is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
				first.String(), second.String())
		}
	})
}
