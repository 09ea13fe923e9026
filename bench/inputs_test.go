package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pamg2d/internal/audit"
	"pamg2d/internal/core"
)

// fingerprint renders everything the program under test receives, with
// every coordinate at full precision.
func fingerprint(t *testing.T, in *inputs) string {
	t.Helper()
	var b strings.Builder
	for _, cfg := range []core.Config{in.Viscous, in.Inviscid, in.Highlift, in.AdaptSetup} {
		text, err := polyText(cfg.Geometry)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s|%+v|%v|%v|%v\n", text, cfg.BL, cfg.SurfaceH0, cfg.Gradation, cfg.HMax)
	}
	for _, e := range in.Catalogue {
		fmt.Fprintf(&b, "%s %d %v %s\n", e.Geometry, e.N, e.Poly, e.Body)
	}
	fmt.Fprintf(&b, "%s %v\n", in.AdaptMetric, in.Sequence)
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sz := range []sizes{fullSizes, quickSizes} {
		a, err := makeInputs(7, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(7, sz)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, a) != fingerprint(t, b) {
			t.Fatal("the same seed gave different inputs")
		}
	}
}

func TestSeedsDifferInGeometryBits(t *testing.T) {
	a, err := makeInputs(1, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(2, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		x, y core.Config
	}{
		{wlViscous, a.Viscous, b.Viscous}, {wlInviscid, a.Inviscid, b.Inviscid},
		{wlHighlift, a.Highlift, b.Highlift}, {wlAdapt, a.AdaptSetup, b.AdaptSetup},
	}
	for _, p := range pairs {
		tx, _ := polyText(p.x.Geometry)
		ty, _ := polyText(p.y.Geometry)
		if tx == ty {
			t.Errorf("%s: seeds 1 and 2 gave the same geometry", p.name)
		}
	}
	same := 0
	for k := range a.Catalogue {
		if bytes.Equal(a.Catalogue[k].Body, b.Catalogue[k].Body) {
			same++
		}
	}
	if same == len(a.Catalogue) {
		t.Error("meshd-mix: seeds 1 and 2 send identical request bodies")
	}
}

func TestCatalogueAndSequence(t *testing.T) {
	in, err := makeInputs(3, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Catalogue) != 24 {
		t.Fatalf("catalogue has %d entries, want 24", len(in.Catalogue))
	}
	bodies := map[string]bool{}
	poly := 0
	for _, e := range in.Catalogue {
		bodies[string(e.Body)] = true
		if e.Poly {
			poly++
			if e.Geometry != "naca0012" {
				t.Errorf("%s n=%d is sent as .poly; only single-element entries may be", e.Geometry, e.N)
			}
		}
	}
	if len(bodies) != 24 || poly != 6 {
		t.Fatalf("%d distinct bodies and %d .poly entries, want 24 and 6", len(bodies), poly)
	}
	// Zipf s = 1 over 24 entries in a block of 96: every entry at least
	// once, the most popular 96/H(24) = 25 times.
	if len(in.Sequence) != 96 {
		t.Fatalf("sequence length %d, want 96", len(in.Sequence))
	}
	count := make([]int, 24)
	for _, k := range in.Sequence {
		count[k]++
	}
	most := 0
	for k, c := range count {
		if c == 0 {
			t.Errorf("entry %d is never requested", k)
		}
		if c > most {
			most = c
		}
	}
	if most != 25 {
		t.Errorf("most popular entry requested %d times per block, want 25", most)
	}
}

// TestSeedsVerifyClean generates every workload's geometry at the smoke
// size for seeds 1, 2 and 3: all must pass the workload's own correctness
// gate, and the triangle counts of the seeds must agree within 2 %.
func TestSeedsVerifyClean(t *testing.T) {
	if testing.Short() {
		t.Skip("generates twelve meshes")
	}
	counts := map[string][]int{}
	for seed := int64(1); seed <= 3; seed++ {
		in, err := makeInputs(seed, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name          string
			cfg           core.Config
			pipelineAudit bool
		}{
			{wlViscous, in.Viscous, true}, {wlInviscid, in.Inviscid, true},
			{wlHighlift, in.Highlift, false}, {wlAdapt, in.AdaptSetup, true},
		}
		for _, c := range cases {
			res, _, err := generate(c.cfg, 2, c.pipelineAudit, nil)
			if err == nil && !c.pipelineAudit {
				err = auditFresh(res.Mesh, audit.Structural())
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if c.pipelineAudit && !res.Stats.Audit.Ok() {
				t.Fatalf("%s seed %d: %v", c.name, seed, res.Stats.Audit.Violations)
			}
			counts[c.name] = append(counts[c.name], res.Stats.TotalTriangles)
		}
	}
	for name, c := range counts {
		lo, hi := c[0], c[0]
		for _, n := range c {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if float64(hi-lo) > 0.02*float64(lo) {
			t.Errorf("%s: triangle counts %v differ by more than 2%%", name, c)
		}
	}
}
