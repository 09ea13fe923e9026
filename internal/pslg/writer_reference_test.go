package pslg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"pamg2d/internal/geom"
)

// referenceWritePoly is the fmt-based WritePoly the strconv chunk
// replaced, kept verbatim as the reference it must match byte for byte.
func referenceWritePoly(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	loops := make([]*Loop, 0, len(g.Surfaces)+1)
	for i := range g.Surfaces {
		loops = append(loops, &g.Surfaces[i])
	}
	if len(g.Farfield.Points) > 0 {
		loops = append(loops, &g.Farfield)
	}
	total := 0
	for _, l := range loops {
		total += len(l.Points)
	}
	fmt.Fprintf(bw, "# pamg2d PSLG\n")
	fmt.Fprintf(bw, "%d 2 0 1\n", total)
	idx := 0
	starts := make([]int, len(loops))
	for li, l := range loops {
		starts[li] = idx
		for _, p := range l.Points {
			// The boundary marker column carries the loop index + 1.
			fmt.Fprintf(bw, "%d %.17g %.17g %d\n", idx, p.X, p.Y, li+1)
			idx++
		}
	}
	fmt.Fprintf(bw, "%d 1\n", total)
	seg := 0
	for li, l := range loops {
		n := len(l.Points)
		for k := 0; k < n; k++ {
			fmt.Fprintf(bw, "%d %d %d %d\n", seg, starts[li]+k, starts[li]+(k+1)%n, li+1)
			seg++
		}
	}
	fmt.Fprintf(bw, "%d\n", len(g.Surfaces))
	for i := range g.Surfaces {
		h := InteriorPointOf(&g.Surfaces[i])
		fmt.Fprintf(bw, "%d %.17g %.17g\n", i, h.X, h.Y)
	}
	return bw.Flush()
}

// checkWritePolyMatchesReference fails unless g writes the reference's
// bytes.
func checkWritePolyMatchesReference(t *testing.T, g *Graph) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.WritePoly(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWritePoly(g, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePoly wrote %d bytes that differ from the reference's %d\n got %q\nwant %q",
			got.Len(), want.Len(), got.Bytes()[:min(got.Len(), 200)], want.Bytes()[:min(want.Len(), 200)])
	}
}

// circle is an n-gon of radius r about (x, y).
func circle(x, y, r float64, n int) Loop {
	l := Loop{Name: "circle"}
	for i := range n {
		a := 2 * math.Pi * float64(i) / float64(n)
		l.Points = append(l.Points, geom.Pt(x+r*math.Cos(a), y+r*math.Sin(a)))
	}
	return l
}

// TestWritePolyMatchesReference: graphs with and without a far field,
// and one of many chunks, write the reference's bytes.
func TestWritePolyMatchesReference(t *testing.T) {
	checkWritePolyMatchesReference(t, &Graph{})
	checkWritePolyMatchesReference(t, &Graph{Surfaces: []Loop{square(0, 0, 1, "only")}})
	checkWritePolyMatchesReference(t, &Graph{
		Surfaces: []Loop{circle(0, 0, 1, 3000), circle(5, 0, 0.5, 1000)},
		Farfield: circle(0, 0, 30, 500),
	})
}

// fuzzGraph decodes data into a graph of raw float64 bit patterns: each
// loop is a count byte and 16 bytes per point, the first loop is the far
// field.
func fuzzGraph(data []byte) *Graph {
	g := &Graph{}
	for first := true; len(data) > 0; first = false {
		n := int(data[0])
		data = data[1:]
		var l Loop
		for ; n > 0 && len(data) >= 16; n-- {
			l.Points = append(l.Points, geom.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(data)),
				math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))))
			data = data[16:]
		}
		if first {
			g.Farfield = l
		} else {
			g.Surfaces = append(g.Surfaces, l)
		}
	}
	return g
}

func FuzzWritePolyMatchesReference(f *testing.F) {
	le := binary.LittleEndian
	seed := []byte{0}
	for _, loop := range [][]float64{
		{0, 0, 1, 0, 1, 1, 0, 1},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, -2.2250738585072014e-308},
	} {
		seed = append(seed, byte(len(loop)/2))
		for _, x := range loop {
			seed = le.AppendUint64(seed, math.Float64bits(x))
		}
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWritePolyMatchesReference(t, fuzzGraph(data))
	})
}

// TestWritePolyReturnsTheWriteError: a failing destination fails the
// writer with its error.
func TestWritePolyReturnsTheWriteError(t *testing.T) {
	g := &Graph{Surfaces: []Loop{circle(0, 0, 1, 3000)}, Farfield: circle(0, 0, 30, 500)}
	if err := g.WritePoly(failWriter{}); !errors.Is(err, errFailWriter) {
		t.Errorf("WritePoly into a failing writer: %v, want %v", err, errFailWriter)
	}
}

type failWriter struct{}

var errFailWriter = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errFailWriter }
