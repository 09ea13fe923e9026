package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

// referenceEncode is the submesh's float layout written out as a vector,
// the form a task's result had before it travelled as a submesh: the wire
// layout the task-result codec must keep writing.
func referenceEncode(s submesh) []float64 {
	vals := []float64{float64(len(s.pts)), float64(len(s.shared)), float64(len(s.tris)), float64(len(s.edges))}
	for _, p := range s.pts {
		vals = append(vals, p.X, p.Y)
	}
	for _, i := range s.shared {
		vals = append(vals, float64(i))
	}
	for _, t := range s.tris {
		vals = append(vals, float64(t[0]), float64(t[1]), float64(t[2]))
	}
	for _, e := range s.edges {
		vals = append(vals, float64(e.u), float64(e.v), float64(e.kind))
	}
	return vals
}

// sameSubmesh reports whether a and b hold the same points, shared
// indices, triangles and edges; an empty list equals a nil one.
func sameSubmesh(a, b submesh) bool {
	return slices.Equal(a.pts, b.pts) && slices.Equal(a.shared, b.shared) &&
		slices.Equal(a.tris, b.tris) && slices.Equal(a.edges, b.edges)
}

// TestTaskResultCodecWritesTheReferenceLayout: for real results of every
// kind — boundary-layer leaves with open and seam edges, transition and
// inviscid tasks — the codec writes the task id, the seconds and then
// exactly the reference layout's floats, WireBytes accounts that frame
// with the id at eight bytes, and the frame decodes to the same submesh.
func TestTaskResultCodecWritesTheReferenceLayout(t *testing.T) {
	_, bl, iso := runCapturing(t, smallConfig(2))
	var open, seam bool
	for _, s := range bl {
		for _, e := range s.edges {
			open = open || e.kind&edgeOpen != 0
			seam = seam || e.kind&edgeSeam != 0
		}
	}
	if len(bl) < 2 || !open || !seam || len(iso) < 2 {
		t.Fatalf("%d leaves (open edges %v, seam edges %v), %d region tasks: the run does not exercise every kind", len(bl), open, seam, len(iso))
	}
	for i, sub := range append(bl, iso...) {
		r := &taskResult{id: int32(i), seconds: 0.125 * float64(i), sub: sub}
		want := binary.LittleEndian.AppendUint32(nil, uint32(r.id))
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(r.seconds))
		ref := referenceEncode(sub)
		for _, v := range ref {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		got := encodeTaskResultRef(r, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("result %d: the codec writes %d bytes, the reference layout %d or other bytes", i, len(got), len(want))
		}
		if r.WireBytes() != 8*(2+len(ref)) || r.WireBytes() != len(got)+4 {
			t.Errorf("result %d: WireBytes %d, frame of %d bytes, %d floats", i, r.WireBytes(), len(got), len(ref))
		}
		back, err := decodeTaskResultRef(got)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if d := back.(*taskResult); d.id != r.id || d.seconds != r.seconds || !sameSubmesh(d.sub, sub) {
			t.Errorf("result %d decodes to another result", i)
		}
	}
}

// TestSubmeshDecodeRejects: a submesh is decoded only from a task-result
// frame, which comes from another process, so one no encoder could have
// written — a header that does not fill the frame, shared indices out of
// order, an index or an edge kind out of range, -0 where an index belongs,
// seconds that are not a duration — is refused, on its own and as an
// entry of the agreement's result list.
func TestSubmeshDecodeRejects(t *testing.T) {
	// Two triangles over four points, points 1 and 3 shared, with an open,
	// a seam and an open seam edge.
	good := resultFrame(submesh{
		pts:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		shared: []int32{1, 3},
		tris:   [][3]int32{{0, 1, 2}, {0, 2, 3}},
		edges:  []leafEdge{{0, 1, edgeOpen}, {2, 3, edgeSeam}, {3, 0, edgeOpen | edgeSeam}},
	})
	noEdges := resultFrame(submesh{pts: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}, tris: [][3]int32{{0, 1, 2}}})
	for _, f := range [][]byte{good, noEdges} {
		if _, err := decodeTaskResultRef(f); err != nil {
			t.Fatalf("a valid frame is refused: %v", err)
		}
		if _, err := decodeResultList(listOf(f)); err != nil {
			t.Fatalf("a valid frame is refused in a list: %v", err)
		}
	}
	const firstShared, firstIndex = subHeader + 8, subHeader + 8 + 2
	const firstEdge = firstIndex + 6
	// with sets float slot of frame f's submesh, or writes the seconds
	// when slot is -1.
	with := func(f []byte, slot int, v float64) []byte {
		out := slices.Clone(f)
		binary.LittleEndian.PutUint64(out[12+8*slot:], math.Float64bits(v))
		return out
	}
	negZero := math.Copysign(0, -1)
	cases := map[string][]byte{
		"NaN point count":                       with(good, subPoints, math.NaN()),
		"infinite triangle count":               with(good, subTriangles, math.Inf(1)),
		"negative shared count":                 with(good, subShared, -1),
		"fractional point count":                with(good, subPoints, 4.5),
		"point count over int32":                with(good, subPoints, 1<<40),
		"more shared than points":               with(good, subShared, 5),
		"point count the length contradicts":    with(good, subPoints, 3),
		"triangle count the length contradicts": with(good, subTriangles, 3),
		"triangle count near int32":             with(good, subTriangles, math.MaxInt32-1),
		"shared index at the point count":       with(good, firstShared+1, 4),
		"shared indices descending":             with(good, firstShared+1, 0),
		"shared index repeated":                 with(good, firstShared+1, 1),
		"NaN shared index":                      with(good, firstShared, math.NaN()),
		"triangle index at the point count":     with(good, firstIndex+4, 4),
		"negative triangle index":               with(good, firstIndex, -1),
		"fractional triangle index":             with(good, firstIndex+2, 1.5),
		"NaN triangle index":                    with(good, firstIndex+5, math.NaN()),
		"infinite triangle index":               with(good, firstIndex+5, math.Inf(-1)),
		"negative edge count":                   with(good, subEdges, -1),
		"edge count the length contradicts":     with(good, subEdges, 2),
		"edge index at the point count":         with(good, firstEdge+3, 4),
		"negative edge index":                   with(good, firstEdge+1, -1),
		"NaN edge index":                        with(good, firstEdge, math.NaN()),
		"edge kind 0":                           with(good, firstEdge+2, 0),
		"edge kind above open and seam":         with(good, firstEdge+5, 4),
		"fractional edge kind":                  with(good, firstEdge+8, 1.5),
		"NaN last edge kind":                    with(good, firstEdge+8, math.NaN()),
		"-0 shared index":                       with(good, firstShared, negZero),
		"-0 triangle index":                     with(good, firstIndex, negZero),
		"-0 edge index":                         with(good, firstEdge, negZero),
		"-0 edge count":                         with(noEdges, subEdges, negZero),
		"negative seconds":                      with(good, -1, -1),
		"NaN seconds":                           with(good, -1, math.NaN()),
		"no header":                             good[:12],
		"a trailing float":                      append(slices.Clone(good), make([]byte, 8)...),
		"a ragged float":                        good[:len(good)-3],
		"no seconds":                            good[:11],
	}
	for _, n := range []int{1, 2, 3, (len(good)-12)/8 - 1} {
		cases[fmt.Sprintf("cut to %d floats", n)] = good[:12+8*n]
	}
	for name, f := range cases {
		if _, err := decodeTaskResultRef(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if _, err := decodeResultList(listOf(f)); err == nil {
			t.Errorf("%s: decoded without error in a result list", name)
		}
	}
}

// listOf is the agreement's result list holding the one entry f.
func listOf(f []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f)))
	return append(b, f...)
}

// TestCorruptResultFailsTheStage: a worker takes a phase's results from
// the root's agreement list, which crosses a process boundary, so a list
// that does not decode — an entry whose last edge kind is NaN, one that
// claims a triangle count near int32, no list at all — fails the worker's
// stage with a *PhaseError naming the stage and the list.
func TestCorruptResultFailsTheStage(t *testing.T) {
	_, bl, _ := runCapturing(t, smallConfig(1))
	frame := resultFrame(bl[0])
	corrupt := slices.Clone(frame)
	binary.LittleEndian.PutUint64(corrupt[len(corrupt)-8:], math.Float64bits(math.NaN()))
	huge := slices.Clone(frame)
	binary.LittleEndian.PutUint64(huge[12+8*subTriangles:], math.Float64bits(math.MaxInt32-1))
	lists := [][]byte{listOf(corrupt), listOf(huge), nil}

	// Both processes answer every list, whatever the worker makes of it,
	// so a worker that wrongly settles cleanly leaves no root waiting.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := runOnFabric(t, 2, func(i int, cl *mpi.Cluster) error {
		var failures []error
		for k, list := range lists {
			world := cl.NewWorld()
			if i == 0 {
				// The root's side of the agreement: take the worker's leg
				// and answer it with a clean verdict carrying the list.
				// Once the answer is sent, the worker's failure may reach
				// this world's run as the worker's close notice; that is
				// the worker's verdict, checked on its side.
				sent := false
				err := world.RunCtx(ctx, func(c *mpi.Comm) error {
					buf, _, _, err := c.Recv(ctx, 1, tagErrSync)
					if err != nil {
						return err
					}
					mpi.PutBytes(buf)
					err = sendAgreement(c, 1, tagResultSync, -1, list)
					sent = err == nil
					return err
				})
				if err != nil && !sent {
					return fmt.Errorf("list %d: %w", k, err)
				}
				continue
			}
			cfg := smallConfig(2)
			cfg.Fabric = cl
			rc := newRunCtx(cfg)
			rc.ctx = ctx
			var msgs, bytes int64
			pe := settlePhase(rc, world, StageInviscid, nil, make([]loadbal.Result, 1), make([]loadbal.Stats, 2), &msgs, &bytes)
			if pe == nil || pe.Stage != StageInviscid || !strings.Contains(pe.Error(), "result list") {
				failures = append(failures, fmt.Errorf("list %d: the worker settles the phase with %v, want a PhaseError of stage %s naming the result list", k, pe, StageInviscid))
			}
		}
		return errors.Join(failures...)
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("process %d: %v", i, err)
		}
	}
}
