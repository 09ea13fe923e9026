package pslg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"pamg2d/internal/fileio"
	"pamg2d/internal/geom"
)

// referenceReadPoly is the fmt-based ReadPoly the line scanner replaced,
// kept as the reference whose verdict and graph ReadPoly must match on
// every input it accepts (FuzzReadPoly). It drops the error of a segment's
// number and marker, reading a malformed marker as 0; ReadPoly refuses
// both.
func referenceReadPoly(r io.Reader) (*Graph, error) {
	// The line buffer starts small and grows up to the 1 MiB cap on the
	// longest line.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	fields := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}

	head, err := fields()
	if err != nil {
		return nil, fmt.Errorf("pslg: reading vertex header: %w", err)
	}
	var nv, dim, nattr, nmark int
	if _, err := fmt.Sscan(strings.Join(head, " "), &nv, &dim, &nattr, &nmark); err != nil {
		return nil, fmt.Errorf("pslg: vertex header %q: %w", head, err)
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
		f, err := fields()
		if err != nil {
			return nil, fmt.Errorf("pslg: reading vertex %d: %w", i, err)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("pslg: vertex line %q too short", f)
		}
		var id int
		var x, y float64
		if _, err := fmt.Sscan(f[0], &id); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscan(f[1], &x); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscan(f[2], &y); err != nil {
			return nil, err
		}
		if !finite(x) || !finite(y) {
			return nil, &NonFiniteError{Where: fmt.Sprintf("vertex %d", id), P: geom.Pt(x, y)}
		}
		ids[id] = i
		pts = append(pts, geom.Pt(x, y))
	}

	head, err = fields()
	if err != nil {
		return nil, fmt.Errorf("pslg: reading segment header: %w", err)
	}
	var ns, smark int
	if _, err := fmt.Sscan(strings.Join(head, " "), &ns, &smark); err != nil {
		return nil, fmt.Errorf("pslg: segment header %q: %w", head, err)
	}
	if ns < 0 {
		return nil, fmt.Errorf("pslg: negative segment count %d", ns)
	}
	// Chain segments grouped by marker into loops.
	type seg struct{ a, b int }
	byMarker := map[int][]seg{}
	for i := 0; i < ns; i++ {
		f, err := fields()
		if err != nil {
			return nil, fmt.Errorf("pslg: reading segment %d: %w", i, err)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("pslg: segment line %q too short", f)
		}
		var id, a, b, marker int
		fmt.Sscan(f[0], &id)
		if _, err := fmt.Sscan(f[1], &a); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscan(f[2], &b); err != nil {
			return nil, err
		}
		if len(f) > 3 {
			fmt.Sscan(f[3], &marker)
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
		start := segs[0].a
		var loop []geom.Point
		v := start
		for {
			loop = append(loop, pts[v])
			nv, ok := next[v]
			if !ok {
				return nil, fmt.Errorf("pslg: marker %d: open chain at vertex %d", marker, v)
			}
			v = nv
			if v == start {
				break
			}
			if len(loop) > len(segs) {
				return nil, fmt.Errorf("pslg: marker %d: chain does not close", marker)
			}
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

// withoutComments drops the lines whose first non-blank byte is '#'.
func withoutComments(data string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(data, "\n") {
		if t := strings.TrimLeft(line, " \t\r\v\f"); t == "" || t[0] != '#' {
			out.WriteString(line)
		}
	}
	return out.String()
}
