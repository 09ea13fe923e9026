package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
)

// Workload names, fixed by ISSUE 12.
const (
	wlViscous  = "naca-viscous"
	wlInviscid = "naca-inviscid"
	wlHighlift = "highlift-tcp"
	wlAdapt    = "adapt-bl"
	wlMeshd    = "meshd-mix"
)

var workloadNames = []string{wlViscous, wlInviscid, wlHighlift, wlAdapt, wlMeshd}

// workloadWhy is the one-sentence reason each workload exists; the same
// sentences are in BENCHMARK.json and the README.
var workloadWhy = map[string]string{
	wlViscous:  "boundary-layer side does nearly all the work (89k triangles, 91% boundary layer): blayer rays, project decomposition, delaunay.Triangulate on clustered anisotropic points, core's root-side BL filter",
	wlInviscid: "the mirror image (191k triangles, 98% transition+inviscid): sizing, decouple, Ruppert refinement, mesh merge and the audit stage dominate; the boundary layer is 2% of the mesh",
	wlHighlift: "the paper's multi-element domain over a real wire: mpi framing/codecs, loadbal steals across processes and core's result re-broadcast, against the same config in-process",
	wlAdapt:    "one metric-adaptation cycle: cavity operators and plan evaluation use delaunay/geom/loadbal/worker pool differently; guard for the executor unification",
	wlMeshd:    "the service surface: admission, LRU cache, .poly parsing, encode; working set 24 is 3x the cache of 8 so hit path and miss path both carry load",
}

// prng is splitmix64: the input generator must give the same inputs for
// the same seed on every Go version, which math/rand does not promise.
type prng struct{ s uint64 }

// newPRNG derives an independent stream per (seed, stream) so adding a
// draw to one workload never shifts another workload's inputs.
func newPRNG(seed int64, stream uint64) *prng {
	p := &prng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	z := p.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit returns a float in [0, 1).
func (p *prng) unit() float64 { return float64(p.next()>>11) / (1 << 53) }

// span returns a float in [lo, hi).
func (p *prng) span(lo, hi float64) float64 { return lo + (hi-lo)*p.unit() }

// intn returns an int in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// shuffle is Fisher-Yates.
func (p *prng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, p.intn(i+1))
	}
}

// jitteredNACA is the seed-jittered single-element geometry of the NACA
// workloads: thickness 0.12 +- 0.01 and angle of attack in [-3, 3]
// degrees, so inputs differ bitwise between seeds while triangle counts
// stay within a fraction of a percent.
func jitteredNACA(r *prng, nHalf int) airfoil.Config {
	sec := airfoil.NACA4{Thickness: r.span(0.11, 0.13), ClosedTE: true}
	c := airfoil.Single(sec, nHalf, 30)
	c.Elements[0].Place.AngleDeg = r.span(-3, 3)
	return c
}

// jitteredHighlift is airfoil.ThreeElement rotated rigidly about the
// origin by up to one degree: gaps, coves and cusps are congruent to the
// stock configuration (no seed can open or close a gap), while every
// coordinate differs in its low bits and the far-field box, which stays
// axis-aligned, cuts the domain slightly differently.
func jitteredHighlift(r *prng, nHalf int) airfoil.Config {
	c := airfoil.ThreeElement(nHalf)
	phi := r.span(-1, 1)
	for i := range c.Elements {
		pl := &c.Elements[i].Place
		pl.AngleDeg -= phi
		pl.Offset = pl.Offset.Rotate(phi * math.Pi / 180)
	}
	return c
}

func blParams(h0, ratio float64, layers int) blayer.Params {
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: h0, Ratio: ratio}
	p.MaxLayers = layers
	return p
}

// sizes are the input sizes of one mode (full or -quick).
type sizes struct {
	viscousN, inviscidN, highliftN, adaptN int
	viscousLayers                          int
	inviscidH0, inviscidGrad, inviscidHMax float64
	highliftH0, adaptH0                    float64
	meshdNs                                []int
	// adaptMetric is the analytic target of adapt-bl. The cycle's cost is
	// set by the metric, not by the input mesh, so -quick needs its own.
	adaptMetric string
}

var fullSizes = sizes{
	viscousN: 768, viscousLayers: 64,
	inviscidN: 128, inviscidH0: 0.004, inviscidGrad: 0.03, inviscidHMax: 0.5,
	highliftN: 256, highliftH0: 0.004,
	adaptN: 128, adaptH0: 0.01,
	meshdNs:     []int{24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68},
	adaptMetric: benchcfg.AdaptMetric,
}

// quickSizes keep every code path of the full sizes (fans, coves, sector
// logic, all five workloads) at a few thousand triangles, for the smoke
// test; no number measured at them is kept.
var quickSizes = sizes{
	viscousN: 48, viscousLayers: 24,
	inviscidN: 32, inviscidH0: 0.08, inviscidGrad: 0.3, inviscidHMax: 4,
	highliftN: 48, highliftH0: 0.02,
	adaptN: 24, adaptH0: 0.1,
	meshdNs:     []int{8, 10, 12, 14, 16, 18}, // 12 entries: still more than the cache holds
	adaptMetric: "bl:x0=0,y0=0,x1=1,y1=0,hn=0.5,ht=3,grow=0.6",
}

// inputs is everything the program under test receives for one seed. The
// program never sees the seed itself.
type inputs struct {
	Viscous, Inviscid, Highlift, AdaptSetup core.Config
	AdaptMetric                             string
	Catalogue                               []catalogueEntry
	// Sequence is the order in which catalogue entries are requested.
	Sequence []int
}

// catalogueEntry is one distinct meshd request.
type catalogueEntry struct {
	Geometry string
	N        int
	// Poly is true when the entry is sent as inline .poly text; the text
	// is then a seed-jittered NACA section, so it is a distinct cache key
	// per seed.
	Poly bool
	// Body is the exact POST /mesh request body.
	Body []byte
}

const (
	streamViscous = iota + 1
	streamInviscid
	streamHighlift
	streamAdapt
	streamMeshd
)

// makeInputs builds every workload's input from the seed.
func makeInputs(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{AdaptMetric: sz.adaptMetric}

	v := core.DefaultConfig()
	v.Geometry = jitteredNACA(newPRNG(seed, streamViscous), sz.viscousN)
	v.BL = blParams(3e-5, 1.15, sz.viscousLayers)
	v.SurfaceH0, v.Gradation, v.HMax = 0.01, 0.3, 4
	in.Viscous = v

	i := core.DefaultConfig()
	i.Geometry = jitteredNACA(newPRNG(seed, streamInviscid), sz.inviscidN)
	i.BL = blParams(1e-3, 1.3, 12)
	i.SurfaceH0, i.Gradation, i.HMax = sz.inviscidH0, sz.inviscidGrad, sz.inviscidHMax
	in.Inviscid = i

	h := core.DefaultConfig()
	h.Geometry = jitteredHighlift(newPRNG(seed, streamHighlift), sz.highliftN)
	h.SurfaceH0 = sz.highliftH0
	in.Highlift = h

	a := core.DefaultConfig()
	a.Geometry = jitteredNACA(newPRNG(seed, streamAdapt), sz.adaptN)
	a.SurfaceH0, a.Gradation = sz.adaptH0, 0.1
	in.AdaptSetup = a

	cat, err := makeCatalogue(newPRNG(seed, streamMeshd), sz.meshdNs)
	if err != nil {
		return nil, err
	}
	in.Catalogue = cat
	in.Sequence = requestSequence(len(cat))
	return in, nil
}

// meshRequestBody mirrors cmd/meshd's request document.
type meshRequestBody struct {
	Geometry string         `json:"geometry,omitempty"`
	N        int            `json:"n,omitempty"`
	Poly     string         `json:"poly,omitempty"`
	Params   map[string]any `json:"params"`
}

// makeCatalogue lists the distinct requests of meshd-mix: naca0012 and
// 30p30n at every n, one entry in four sent as inline .poly text.
func makeCatalogue(r *prng, ns []int) ([]catalogueEntry, error) {
	var cat []catalogueEntry
	for _, n := range ns {
		cat = append(cat, catalogueEntry{Geometry: "naca0012", N: n}, catalogueEntry{Geometry: "30p30n", N: n})
	}
	// Which quarter goes as .poly is the seed's choice, among the
	// single-element entries: pslg.ReadPoly orders the surfaces of a
	// multi-element .poly by map iteration, so one 30p30n text hashes to up
	// to six cache keys and its hit ratio is a coin toss per request.
	var single []int
	for k := range cat {
		if cat[k].Geometry == "naca0012" {
			single = append(single, k)
		}
	}
	r.shuffle(len(single), func(a, b int) { single[a], single[b] = single[b], single[a] })
	for _, k := range single[:len(cat)/4] {
		cat[k].Poly = true
	}
	for k := range cat {
		e := &cat[k]
		req := meshRequestBody{Params: map[string]any{}}
		if e.Poly {
			text, err := polyText(jitteredNACA(r, e.N))
			if err != nil {
				return nil, fmt.Errorf("catalogue %s n=%d: %w", e.Geometry, e.N, err)
			}
			req.Poly = text
		} else {
			req.Geometry, req.N = e.Geometry, e.N
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		e.Body = body
	}
	return cat, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func polyText(ac airfoil.Config) (string, error) {
	g, err := ac.Graph()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := g.WritePoly(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// requestSequence is the request stream of meshd-mix: one block of 4x
// the catalogue size in which every entry appears exactly its Zipf (s = 1)
// share (largest remainder; at 24 entries the rarest still appears once),
// shuffled; the clients loop over it.
//
// The stream is a constant of the benchmark, not a function of the seed,
// and it is periodic: the seed changes what is requested (which entries
// travel as .poly, and their geometry bits), not the order in which
// popularity ranks arrive. With seeded draws the LRU hit ratio moves by
// +-0.04 between seeds at these request counts, and with it throughput
// and mean latency by more than any bound this benchmark sets. With one
// block repeated, the cache is in the same state at every block boundary
// once the warm-up block has run, so every block costs the same and a run
// may stop after any whole number of them.
func requestSequence(entries int) []int {
	block := 4 * entries
	count := make([]int, entries)
	rem := make([]float64, entries)
	var h float64
	for i := 0; i < entries; i++ {
		h += 1 / float64(i+1)
	}
	total := 0
	for i := range count {
		share := float64(block) / (h * float64(i+1))
		count[i] = int(share)
		rem[i] = share - float64(count[i])
		total += count[i]
	}
	for ; total < block; total++ {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		count[best]++
		rem[best] = -1
	}
	// Popularity rank -> catalogue entry: a fixed stride permutation, so
	// cheap and expensive entries of both geometries are spread over the
	// popular and the unpopular ranks.
	stride := 7
	for gcd(stride, entries) != 1 {
		stride += 2
	}
	seq := make([]int, 0, block)
	for i, c := range count {
		for k := 0; k < c; k++ {
			seq = append(seq, (i*stride)%entries)
		}
	}
	r := newPRNG(0x5EED, 0)
	r.shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}
