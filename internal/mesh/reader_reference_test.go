package mesh

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"pamg2d/internal/fileio"
	"pamg2d/internal/geom"
)

// referenceReadASCII is the fmt-based ReadASCII the line scanner
// replaced, kept as the reference whose verdict and mesh ReadASCII must
// match on every input it accepts (FuzzReadASCII).
func referenceReadASCII(r io.Reader) (*Mesh, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var np, dim, nattr, nmark int
	if _, err := fmt.Fscan(br, &np, &dim, &nattr, &nmark); err != nil {
		return nil, fmt.Errorf("mesh: reading node header: %w", err)
	}
	if dim != 2 {
		return nil, fmt.Errorf("mesh: dimension %d not supported", dim)
	}
	if np < 0 || np > maxCount {
		return nil, fmt.Errorf("mesh: node count %d out of range", np)
	}
	pts := make([]geom.Point, 0, min(np, fileio.MaxPrealloc))
	ids := make([]int32, 0, min(np, fileio.MaxPrealloc))
	for i := 0; i < np; i++ {
		var idx int
		var x, y float64
		if _, err := fmt.Fscan(br, &idx, &x, &y); err != nil {
			return nil, fmt.Errorf("mesh: reading node %d: %w", i, err)
		}
		if idx < 0 || idx >= np {
			return nil, fmt.Errorf("mesh: node index %d out of range", idx)
		}
		pts = append(pts, geom.Pt(x, y))
		ids = append(ids, int32(idx))
	}
	var nt, perTri, nattr2 int
	if _, err := fmt.Fscan(br, &nt, &perTri, &nattr2); err != nil {
		return nil, fmt.Errorf("mesh: reading element header: %w", err)
	}
	if perTri != 3 {
		return nil, fmt.Errorf("mesh: %d corners per element not supported", perTri)
	}
	if nt < 0 || nt > maxCount {
		return nil, fmt.Errorf("mesh: element count %d out of range", nt)
	}
	tris := make([][3]int32, 0, min(nt, fileio.MaxPrealloc))
	tids := make([]int32, 0, min(nt, fileio.MaxPrealloc))
	for i := 0; i < nt; i++ {
		var idx int
		var a, b, c int32
		if _, err := fmt.Fscan(br, &idx, &a, &b, &c); err != nil {
			return nil, fmt.Errorf("mesh: reading element %d: %w", i, err)
		}
		if idx < 0 || idx >= nt {
			return nil, fmt.Errorf("mesh: element index %d out of range", idx)
		}
		for _, v := range []int32{a, b, c} {
			if v < 0 || int(v) >= np {
				return nil, &ElemRefError{Elem: idx, Vertex: int64(v), NumPoints: np}
			}
		}
		tris = append(tris, [3]int32{a, b, c})
		tids = append(tids, int32(idx))
	}
	return &Mesh{Points: byIndex(pts, ids), Triangles: byIndex(tris, tids)}, nil
}

// withoutComments drops the lines whose first non-blank byte is '#',
// which fmt's scanner would read as numbers.
func withoutComments(data []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if t := bytes.TrimLeft(line, " \t\r\v\f"); len(t) == 0 || t[0] != '#' {
			out = append(out, line...)
		}
	}
	return out
}
