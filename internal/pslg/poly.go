package pslg

import (
	"fmt"
	"io"
	"sort"

	"pamg2d/internal/fileio"
	"pamg2d/internal/geom"
)

// WritePoly writes the graph in Triangle's .poly format: a vertex section,
// a segment section connecting each loop, and a hole section with one seed
// inside each body. Mesh generators built on Triangle exchange geometry in
// this format, so the push-button CLI reads and writes it. Numbers go
// through fileio's encoder, byte for byte what fmt's %d and %.17g print,
// and the first write error is returned.
func (g *Graph) WritePoly(w io.Writer) error {
	// The far field, when present, is the last loop.
	loops := g.Surfaces
	if len(g.Farfield.Points) > 0 {
		loops = append(loops[:len(loops):len(loops)], g.Farfield)
	}
	total := 0
	for _, l := range loops {
		total += len(l.Points)
	}
	// A vertex line is at most 72 bytes, a segment line 44 and a hole
	// line 61.
	e := fileio.NewEncoder(w, 64+128*total+64*len(g.Surfaces))
	e.Str("# pamg2d PSLG\n")
	e.Ints(total, 2, 0, 1)
	e.Line()
	idx := 0
	for li, l := range loops {
		for _, p := range l.Points {
			// The boundary marker column carries the loop index + 1.
			e.Ints(idx)
			e.Floats(p.X, p.Y)
			e.Ints(li + 1)
			e.Line()
			idx++
		}
	}
	e.Ints(total, 1)
	e.Line()
	// Segment start+k joins vertices start+k and the loop's next one, so a
	// segment's number is its first vertex's.
	start := 0
	for li, l := range loops {
		n := len(l.Points)
		for k := range n {
			e.Ints(start+k, start+k, start+(k+1)%n, li+1)
			e.Line()
		}
		start += n
	}
	e.Ints(len(g.Surfaces))
	e.Line()
	for i := range g.Surfaces {
		h := InteriorPointOf(&g.Surfaces[i])
		e.Ints(i)
		e.Floats(h.X, h.Y)
		e.Line()
	}
	return e.Flush()
}

// ReadPoly reads a .poly file written by WritePoly (or a compatible subset
// of Triangle's format: vertices and segments with boundary markers that
// group segments into loops, where each marker's segments form one closed
// loop), one record per line; blank lines and '#' lines are skipped. The
// loop that encloses every other loop becomes the far field; otherwise all
// loops are surfaces. Loops are normalized to CCW. A vertex coordinate
// that is NaN or infinite ("nan" and "inf" read as numbers) is refused
// with a *NonFiniteError naming the vertex. What would not read back the
// same after WritePoly is refused too: a loop enclosing no area, or two
// loops each enclosing all the others.
func ReadPoly(r io.Reader) (*Graph, error) {
	sc := fileio.NewScanner(r)
	sc.Next(4, false)
	// Attribute and marker counts and segment numbers are parsed, not kept;
	// fields past the ones read are skipped.
	nv, dim, _, _ := int(sc.Int(0)), sc.Int(1), sc.Int(2), sc.Int(3)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pslg: reading vertex header: %w", err)
	}
	if dim != 2 {
		return nil, fmt.Errorf("pslg: dimension %d not supported", dim)
	}
	if nv < 0 {
		return nil, fmt.Errorf("pslg: negative vertex count %d", nv)
	}
	pts := make([]geom.Point, 0, min(nv, fileio.MaxPrealloc))
	ids := make(map[int]int, min(nv, fileio.MaxPrealloc))
	for i := 0; i < nv; i++ {
		sc.Next(3, false)
		id, x, y := int(sc.Int(0)), sc.Float(1), sc.Float(2)
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("pslg: reading vertex %d: %w", i, err)
		}
		if !finite(x) || !finite(y) {
			return nil, &NonFiniteError{Where: fmt.Sprintf("vertex %d", id), P: geom.Pt(x, y)}
		}
		ids[id] = i
		pts = append(pts, geom.Pt(x, y))
	}

	sc.Next(2, false)
	ns, _ := int(sc.Int(0)), sc.Int(1)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pslg: reading segment header: %w", err)
	}
	if ns < 0 {
		return nil, fmt.Errorf("pslg: negative segment count %d", ns)
	}
	// Chain segments grouped by marker into loops.
	type seg struct{ a, b int }
	byMarker := map[int][]seg{}
	for i := 0; i < ns; i++ {
		n := sc.Next(3, false)
		_, a, b, marker := sc.Int(0), int(sc.Int(1)), int(sc.Int(2)), 0
		if n > 3 {
			marker = int(sc.Int(3))
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("pslg: reading segment %d: %w", i, err)
		}
		ai, ok := ids[a]
		if !ok {
			return nil, fmt.Errorf("pslg: segment %d references unknown vertex %d", i, a)
		}
		bi, ok := ids[b]
		if !ok {
			return nil, fmt.Errorf("pslg: segment %d references unknown vertex %d", i, b)
		}
		byMarker[marker] = append(byMarker[marker], seg{ai, bi})
	}

	// Ascending marker order: the graph (and anything hashed from it) must
	// be a function of the text, not of map iteration.
	markers := make([]int, 0, len(byMarker))
	for marker := range byMarker {
		markers = append(markers, marker)
	}
	sort.Ints(markers)
	var loops []Loop
	for _, marker := range markers {
		segs := byMarker[marker]
		next := make(map[int]int, len(segs))
		for _, s := range segs {
			if _, dup := next[s.a]; dup {
				return nil, fmt.Errorf("pslg: marker %d: vertex %d starts two segments", marker, s.a)
			}
			next[s.a] = s.b
		}
		loop := make([]geom.Point, 0, len(segs))
		for v := segs[0].a; len(loop) == 0 || v != segs[0].a; {
			if len(loop) == len(segs) {
				return nil, fmt.Errorf("pslg: marker %d: chain does not close", marker)
			}
			loop = append(loop, pts[v])
			nv, ok := next[v]
			if !ok {
				return nil, fmt.Errorf("pslg: marker %d: open chain at vertex %d", marker, v)
			}
			v = nv
		}
		if len(loop) != len(segs) {
			return nil, fmt.Errorf("pslg: marker %d forms %d loops; one expected", marker, 1+len(segs)-len(loop))
		}
		l := Loop{Points: loop, Name: fmt.Sprintf("loop-%d", marker)}
		if !l.IsCCW() {
			l.Reverse()
			// Reversed, a loop that encloses no area would be reversed
			// again on its next read: it has no orientation to keep.
			if !l.IsCCW() {
				return nil, fmt.Errorf("pslg: marker %d: loop encloses no area", marker)
			}
		}
		loops = append(loops, l)
	}
	if len(loops) == 0 {
		return nil, fmt.Errorf("pslg: no loops found")
	}

	// The enclosing loop (if any) is the far field, tested on the points
	// WritePoly writes first. Two loops that each enclose all the others
	// cross, and which one became the far field would depend on the order
	// the file lists them in.
	enclosesAll := func(i int) bool {
		for j := range loops {
			if j != i && !loops[i].Contains(loops[j].Points[0]) {
				return false
			}
		}
		return true
	}
	g := &Graph{}
	outer := -1
	for i := range loops {
		if len(loops) < 2 || !enclosesAll(i) {
			continue
		}
		if outer >= 0 {
			return nil, fmt.Errorf("pslg: %s and %s each enclose every other loop", loops[outer].Name, loops[i].Name)
		}
		outer = i
	}
	for i := range loops {
		l := loops[i]
		if i == outer {
			l.Name = "farfield"
			g.Farfield = l
		} else {
			g.Surfaces = append(g.Surfaces, l)
		}
	}
	return g, nil
}
