// Package netlist reads and writes the repository's plain-text formats for
// nets and buffer libraries, so the CLIs can work on files and users can
// bring their own designs.
//
// Net format (units: kΩ, fF, ps; '#' starts a comment; parents must be
// declared before children; the source is the implicit vertex "src"):
//
//	net clk_east                        # optional net name
//	driver res 0.5 k 20                 # optional source driver
//	node n1 parent src res 0.4 cap 12 buffer
//	node n2 parent n1 res 0.1 cap 3 buffer allowed 0,2
//	node n3 parent n1 res 0 cap 0
//	sink s1 parent n2 res 0.2 cap 8 load 14 rat 950
//	sink s2 parent n3 res 0.3 cap 9 load 21 rat 1000 neg
//
// Library format:
//
//	buffer buf1 res 7 cin 0.7 delay 29 cost 1
//	buffer inv1 res 3.5 cin 1.5 delay 30 cost 2 inverting
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"sort"
	"strconv"
	"strings"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/tree"
)

// Net bundles everything a net file describes.
type Net struct {
	Name   string
	Tree   *tree.Tree
	Driver delay.Driver
}

// ParseNet reads a net file.
func ParseNet(r io.Reader) (*Net, error) {
	text, err := readText(r)
	if err != nil {
		return nil, err
	}
	// Every vertex line holds at least "node a parent b\n", so the line
	// count, capped by that length, bounds the vertex count without letting
	// a run of blank lines inflate it.
	n := min(strings.Count(text, "\n")+1, len(text)/len("node a parent b\n")+1)
	b := tree.NewBuilder()
	b.Grow(n)
	ids := make(map[string]int, n+1)
	ids["src"] = 0
	net := &Net{}
	var allowed []int // reused from line to line
	for lineNo, f := range lines(text) {
		switch f[0] {
		case "net":
			if len(f) != 2 {
				return nil, lineErr(lineNo, "want: net <name>")
			}
			net.Name = strings.Clone(f[1])
		case "driver":
			kv, err := newPairs(f[1:])
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			if net.Driver.R, err = kv.float("res", 0); err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			if net.Driver.K, err = kv.float("k", 0); err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			if err := net.Driver.Validate(); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
		case "node", "sink":
			if len(f) < 2 {
				return nil, lineErr(lineNo, "missing vertex name")
			}
			if _, dup := ids[f[1]]; dup {
				return nil, lineErr(lineNo, "duplicate vertex %q", f[1])
			}
			// Bare flags ("buffer", "neg", "allowed <list>") may sit anywhere
			// after the name; take them out and keep the key/value pairs,
			// compacting in place.
			rest := f[2:]
			var bufferable, neg bool
			allowed = allowed[:0]
			kvFields := rest[:0]
			for i := 0; i < len(rest); i++ {
				switch rest[i] {
				case "buffer":
					bufferable = true
				case "neg":
					neg = true
				case "allowed":
					if i+1 >= len(rest) {
						return nil, lineErr(lineNo, "allowed needs a comma-separated index list")
					}
					i++
					for s := range strings.SplitSeq(rest[i], ",") {
						v, err := strconv.Atoi(s)
						if err != nil || v < 0 {
							return nil, lineErr(lineNo, "bad allowed index %q", s)
						}
						allowed = append(allowed, v)
					}
				default:
					kvFields = append(kvFields, rest[i])
				}
			}
			kv, err := newPairs(kvFields)
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			pname, ok := kv.lookup("parent")
			if !ok {
				return nil, lineErr(lineNo, "missing parent")
			}
			parent, ok := ids[pname]
			if !ok {
				return nil, lineErr(lineNo, "unknown parent %q (parents must be declared first)", pname)
			}
			er, err := kv.float("res", 0)
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			ec, err := kv.float("cap", 0)
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			var id int
			if f[0] == "sink" {
				load, err := kv.required("load")
				if err != nil {
					return nil, lineErr(lineNo, "%v", err)
				}
				rat, err := kv.required("rat")
				if err != nil {
					return nil, lineErr(lineNo, "%v", err)
				}
				pol := tree.Positive
				if neg {
					pol = tree.Negative
				}
				if bufferable {
					return nil, lineErr(lineNo, "a sink cannot be a buffer position")
				}
				id = b.AddSinkPol(parent, er, ec, load, rat, pol)
			} else {
				if neg {
					return nil, lineErr(lineNo, "neg applies to sinks only")
				}
				switch {
				case bufferable && len(allowed) > 0:
					id = b.AddBufferPosRestricted(parent, er, ec, allowed)
				case bufferable:
					id = b.AddBufferPos(parent, er, ec)
				case len(allowed) > 0:
					return nil, lineErr(lineNo, "allowed requires buffer")
				default:
					id = b.AddInternal(parent, er, ec)
				}
			}
			if id < 0 {
				return nil, lineErr(lineNo, "%v", b.Err())
			}
			// Copy the name: a substring would pin the whole input text for
			// as long as the tree lives.
			name := strings.Clone(f[1])
			b.SetName(id, name)
			ids[name] = id
		default:
			return nil, lineErr(lineNo, "unknown directive %q", f[0])
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	net.Tree = t
	return net, nil
}

// WriteNet writes a net file that ParseNet reproduces exactly.
func WriteNet(w io.Writer, net *Net) error {
	bw := bufio.NewWriter(w)
	if net.Name != "" {
		fmt.Fprintf(bw, "net %s\n", net.Name)
	}
	if net.Driver != (delay.Driver{}) {
		fmt.Fprintf(bw, "driver res %s k %s\n", g(net.Driver.R), g(net.Driver.K))
	}
	t := net.Tree
	names := canonicalNames(t)
	for v := 1; v < t.Len(); v++ {
		vert := &t.Verts[v]
		if vert.Kind == tree.Sink {
			fmt.Fprintf(bw, "sink %s parent %s res %s cap %s load %s rat %s",
				names[v], names[vert.Parent], g(vert.EdgeR), g(vert.EdgeC), g(vert.Cap), g(vert.RAT))
			if vert.Pol == tree.Negative {
				bw.WriteString(" neg")
			}
		} else {
			fmt.Fprintf(bw, "node %s parent %s res %s cap %s",
				names[v], names[vert.Parent], g(vert.EdgeR), g(vert.EdgeC))
			if vert.BufferOK {
				bw.WriteString(" buffer")
				if len(vert.Allowed) > 0 {
					a := append([]int(nil), vert.Allowed...)
					sort.Ints(a)
					parts := make([]string, len(a))
					for i, x := range a {
						parts[i] = strconv.Itoa(x)
					}
					fmt.Fprintf(bw, " allowed %s", strings.Join(parts, ","))
				}
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// canonicalNames returns unique vertex names: the stored name when present
// and unique, otherwise "v<i>". Vertex 0 is always "src".
func canonicalNames(t *tree.Tree) []string {
	names := make([]string, t.Len())
	used := map[string]bool{"src": true}
	names[0] = "src"
	for v := 1; v < t.Len(); v++ {
		n := t.Verts[v].Name
		if n == "" || used[n] {
			n = fmt.Sprintf("v%d", v)
		}
		for used[n] {
			n = "x" + n
		}
		used[n] = true
		names[v] = n
	}
	return names
}

// ParseLibrary reads a library file.
func ParseLibrary(r io.Reader) (library.Library, error) {
	text, err := readText(r)
	if err != nil {
		return nil, err
	}
	var lib library.Library
	for lineNo, f := range lines(text) {
		if f[0] != "buffer" {
			return nil, lineErr(lineNo, "unknown directive %q", f[0])
		}
		if len(f) < 2 {
			return nil, lineErr(lineNo, "missing buffer name")
		}
		buf := library.Buffer{Name: strings.Clone(f[1])}
		rest := f[2:]
		kvFields := rest[:0]
		for _, tok := range rest {
			if tok == "inverting" {
				buf.Inverting = true
			} else {
				kvFields = append(kvFields, tok)
			}
		}
		kv, err := newPairs(kvFields)
		if err != nil {
			return nil, lineErr(lineNo, "%v", err)
		}
		if buf.R, err = kv.required("res"); err != nil {
			return nil, lineErr(lineNo, "%v", err)
		}
		if buf.Cin, err = kv.required("cin"); err != nil {
			return nil, lineErr(lineNo, "%v", err)
		}
		if buf.K, err = kv.float("delay", 0); err != nil {
			return nil, lineErr(lineNo, "%v", err)
		}
		cost, err := kv.float("cost", 0)
		if err != nil {
			return nil, lineErr(lineNo, "%v", err)
		}
		if cost != float64(int(cost)) || cost < 0 {
			return nil, lineErr(lineNo, "cost must be a nonnegative integer, got %v", cost)
		}
		buf.Cost = int(cost)
		lib = append(lib, buf)
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

// WriteLibrary writes a library file that ParseLibrary reproduces exactly.
func WriteLibrary(w io.Writer, lib library.Library) error {
	bw := bufio.NewWriter(w)
	for i, b := range lib {
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("b%d", i)
		}
		fmt.Fprintf(bw, "buffer %s res %s cin %s delay %s cost %d", name, g(b.R), g(b.Cin), g(b.K), b.Cost)
		if b.Inverting {
			bw.WriteString(" inverting")
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// readText reads all of r into one string, sized up front when r reports
// its length (bytes.Reader, strings.Reader). The parsers slice fields out of
// it rather than allocating per line, and copy only what they keep.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(max(l.Len(), 0))
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", fmt.Errorf("netlist: read: %w", err)
	}
	return sb.String(), nil
}

// lines yields the whitespace-separated fields of each line of text that
// has any, with its 1-based line number, splitting as strings.Fields would.
// '#' starts a comment, and "\r\n" ends a line like "\n". The fields are
// substrings of text, in a slice reused from line to line.
func lines(text string) iter.Seq2[int, []string] {
	return func(yield func(int, []string) bool) {
		var buf [32]string
		f := buf[:0]
		for lineNo := 1; text != ""; lineNo++ {
			line, rest, _ := strings.Cut(text, "\n")
			text = rest
			line, _, _ = strings.Cut(line, "#")
			f = f[:0]
			for tok := range strings.FieldsSeq(line) {
				f = append(f, tok)
			}
			if len(f) > 0 && !yield(lineNo, f) {
				return
			}
		}
	}
}

func lineErr(lineNo int, format string, args ...any) error {
	return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

// pairs holds a line's alternating "key value" fields. Lines carry a
// handful of keys, so lookups scan them.
type pairs []string

// newPairs checks that f pairs up with no key repeated.
func newPairs(f []string) (pairs, error) {
	if len(f)%2 != 0 {
		return nil, fmt.Errorf("dangling token %q", f[len(f)-1])
	}
	if len(f) <= 32 {
		for i := 2; i < len(f); i += 2 {
			for j := 0; j < i; j += 2 {
				if f[i] == f[j] {
					return nil, fmt.Errorf("duplicate key %q", f[i])
				}
			}
		}
		return f, nil
	}
	// A long line would make the pairwise scan quadratic.
	seen := make(map[string]bool, len(f)/2)
	for i := 0; i < len(f); i += 2 {
		if seen[f[i]] {
			return nil, fmt.Errorf("duplicate key %q", f[i])
		}
		seen[f[i]] = true
	}
	return f, nil
}

func (p pairs) lookup(key string) (string, bool) {
	for i := 0; i < len(p); i += 2 {
		if p[i] == key {
			return p[i+1], true
		}
	}
	return "", false
}

// float returns key's value, or def when the line does not set it.
func (p pairs) float(key string, def float64) (float64, error) {
	s, ok := p.lookup(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, s)
	}
	return v, nil
}

// required is float for a key the line must set.
func (p pairs) required(key string) (float64, error) {
	if _, ok := p.lookup(key); !ok {
		return 0, fmt.Errorf("missing %s", key)
	}
	return p.float(key, 0)
}

// g formats a float with full round-trip precision.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
