package netlist

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/netgen"
)

// industrialText is the net file of netgen.Industrial(sinks, positions, 1).
func industrialText(tb testing.TB, sinks, positions int) []byte {
	tb.Helper()
	tr, err := netgen.Industrial(sinks, positions, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	net := &Net{Name: fmt.Sprintf("industrial_%d_%d", sinks, positions), Tree: tr, Driver: delay.Driver{R: 0.2, K: 15}}
	if err := WriteNet(&buf, net); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseNetAllocsPerLine: parsing allocates O(1) per vertex line (the
// copied name), not O(tokens).
func TestParseNetAllocsPerLine(t *testing.T) {
	text := industrialText(t, 300, 5000)
	net, err := ParseNet(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	lines := net.Tree.Len() - 1
	if lines < 5000 {
		t.Fatalf("only %d vertex lines", lines)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseNet(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(lines + 64); allocs > limit {
		t.Fatalf("ParseNet made %.0f allocations for %d vertex lines, want at most %.0f", allocs, lines, limit)
	}
}

// TestParseNetKeepsNoText: the parsed net does not pin its input text, so a
// cached net costs its own size, not the size of the request it came in.
func TestParseNetKeepsNoText(t *testing.T) {
	const comment = 8 << 20
	parse := func() *Net {
		text := "# " + strings.Repeat("x", comment) + "\nnet big\n" +
			"node n1 parent src res 1 cap 1 buffer\nsink s1 parent n1 load 1 rat 2\n"
		net, err := ParseNet(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := parse()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > comment/2 {
		t.Fatalf("a parsed net keeps %d bytes of heap alive; its text was %d bytes", kept, comment)
	}
	runtime.KeepAlive(net)
}

// BenchmarkParseNet parses the paper's Table 1 nets (experiments.Table1Cases)
// from their text.
func BenchmarkParseNet(b *testing.B) {
	for _, c := range []struct{ m, n int }{{337, 5729}, {1944, 33133}, {2676, 45492}} {
		text := industrialText(b, c.m, c.n)
		b.Run(fmt.Sprintf("m=%d/n=%d", c.m, c.n), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ParseNet(bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
