package xmark

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Seed: 1, MB: 1})
	b := Generate(Spec{Seed: 1, MB: 1})
	if !a.Equal(b) {
		t.Error("same spec produced different documents")
	}
	c := Generate(Spec{Seed: 2, MB: 1})
	if a.Equal(c) {
		t.Error("different seeds produced identical documents")
	}
}

func TestGenerateSize(t *testing.T) {
	for _, mb := range []float64{0.5, 1, 5, 10} {
		doc := Generate(Spec{Seed: 7, MB: mb})
		want := mb * DefaultNodesPerMB
		got := float64(doc.Size())
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("MB=%.1f: %v nodes, want ≈%v (±5%%)", mb, got, want)
		}
		if err := xmltree.Validate(doc); err != nil {
			t.Errorf("MB=%.1f: %v", mb, err)
		}
	}
	// Custom scale.
	doc := Generate(Spec{Seed: 7, MB: 2, NodesPerMB: 500})
	if got := doc.Size(); got < 900 || got > 1100 {
		t.Errorf("custom NodesPerMB: %d nodes, want ≈1000", got)
	}
}

func TestGenerateStructure(t *testing.T) {
	doc := Generate(Spec{Seed: 3, MB: 2})
	if doc.Label != "site" {
		t.Errorf("root label = %q", doc.Label)
	}
	for _, section := range []string{"regions", "categories", "people", "open_auctions", "closed_auctions"} {
		if doc.FindFirst(section) == nil {
			t.Errorf("missing section %q", section)
		}
	}
	stats := xmltree.ComputeStats(doc)
	if stats.Labels["item"] == 0 || stats.Labels["person"] == 0 || stats.Labels["open_auction"] == 0 {
		t.Errorf("sections not populated: %v", stats.Labels)
	}
	// Items dominate, as in XMark.
	if stats.Labels["item"] < stats.Labels["person"] {
		t.Errorf("items (%d) should outnumber persons (%d)", stats.Labels["item"], stats.Labels["person"])
	}
}

func TestBeacon(t *testing.T) {
	doc := Generate(Spec{Seed: 3, MB: 0.5, Beacon: BeaconName(7)})
	// The beacon query must compile; its answers come from the AST
	// interpreter.
	xpath.MustCompileString(BeaconQuery(7))
	q := xpath.MustParse(BeaconQuery(7))
	if !xpath.EvalRaw(q, doc) {
		t.Error("beacon query false on its own site")
	}
	other := Generate(Spec{Seed: 3, MB: 0.5, Beacon: BeaconName(8)})
	if xpath.EvalRaw(q, other) {
		t.Error("beacon query true on a different site")
	}
	plain := Generate(Spec{Seed: 3, MB: 0.5})
	if plain.FindFirst("beacon") != nil {
		t.Error("beacon planted without being requested")
	}
}

func TestQuerySizes(t *testing.T) {
	for _, size := range QuerySizes() {
		src, ok := Queries[size]
		if !ok {
			t.Fatalf("no query for size %d", size)
		}
		p := xpath.MustCompileString(src)
		if got := p.QListSize(); got != size {
			t.Errorf("QListSize(%q) = %d, want %d", src, got, size)
		}
	}
	// All benchmark queries hold on a generated site, so evaluation always
	// traverses everything.
	doc := Generate(Spec{Seed: 11, MB: 3})
	for size, src := range Queries {
		if !xpath.EvalRaw(xpath.MustParse(src), doc) {
			t.Errorf("benchmark query (size %d) %q is false on a 3MB site", size, src)
		}
	}
}

func TestBuildDocTopologies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parents []int
	}{
		{"star", StarParents(5)},
		{"chain", ChainParents(5)},
		{"ft3", FT3Parents()},
	} {
		n := len(tc.parents)
		beacons := make([]string, n)
		for i := range beacons {
			beacons[i] = BeaconName(i)
		}
		root, sites, err := BuildDoc(TreeSpec{
			Seed:       5,
			Parents:    tc.parents,
			MBs:        EvenMBs(2, n),
			NodesPerMB: 200,
			Beacons:    beacons,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(sites) != n {
			t.Fatalf("%s: %d site roots", tc.name, len(sites))
		}
		if err := xmltree.Validate(root); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		forest, err := Fragment(root, sites)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if forest.Count() != n {
			t.Errorf("%s: %d fragments, want %d", tc.name, forest.Count(), n)
		}
		if err := forest.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		// Fragment i's parent must equal the topology's parent.
		for i := 1; i < n; i++ {
			fr, ok := forest.Fragment(xmltree.FragmentID(i))
			if !ok {
				t.Fatalf("%s: missing fragment %d", tc.name, i)
			}
			if int(fr.Parent) != tc.parents[i] {
				t.Errorf("%s: fragment %d parent = %d, want %d", tc.name, i, fr.Parent, tc.parents[i])
			}
		}
		// Each beacon is found exactly in its own fragment.
		for i := 0; i < n; i++ {
			fr, _ := forest.Fragment(xmltree.FragmentID(i))
			prog := xpath.MustCompileString(BeaconQuery(i))
			tr, _, err := eval.BottomUp(fr.Root, prog)
			if err != nil {
				t.Fatal(err)
			}
			// The fragment's own DV entry for the beacon text must be
			// satisfiable only in fragment i. Leaf check: evaluate on the
			// assembled doc restricted per fragment is overkill; instead
			// assert the beacon element text.
			_ = tr
			if b := fr.Root.FindFirst("beacon"); b == nil || b.Text != BeaconName(i) {
				t.Errorf("%s: fragment %d beacon = %v", tc.name, i, b)
			}
		}
	}
}

func TestBuildDocErrors(t *testing.T) {
	if _, _, err := BuildDoc(TreeSpec{Parents: []int{0}, MBs: []float64{1}}); err == nil {
		t.Error("Parents[0] != -1 must fail")
	}
	if _, _, err := BuildDoc(TreeSpec{Parents: []int{-1, 5}, MBs: []float64{1, 1}}); err == nil {
		t.Error("forward parent must fail")
	}
	if _, _, err := BuildDoc(TreeSpec{Parents: []int{-1}, MBs: nil}); err == nil {
		t.Error("size mismatch must fail")
	}
}

func TestFT3MBs(t *testing.T) {
	mbs := FT3MBs(1)
	if len(mbs) != len(FT3Parents()) {
		t.Fatalf("FT3MBs has %d entries for %d fragments", len(mbs), len(FT3Parents()))
	}
	var total float64
	for _, m := range mbs {
		total += m
	}
	if total < 30 || total > 40 {
		t.Errorf("FT3 scale-1 total = %.1f MB", total)
	}
	mbs5 := FT3MBs(5)
	if mbs5[0] != mbs[0] {
		t.Error("F0 must stay fixed across scales")
	}
	if mbs5[1] != 50 {
		t.Errorf("F1 at scale 5 = %.1f, want 50", mbs5[1])
	}
}

func TestNamedQueries(t *testing.T) {
	doc := Generate(Spec{Seed: 4, MB: 4})
	// BQ1 needs a known person name to exist; the generator's vocabulary
	// guarantees "Ada Ahmed" appears in a 4MB site with overwhelming
	// probability — pin it.
	for name, src := range NamedQueries {
		if _, err := xpath.CompileString(src); err != nil {
			t.Errorf("%s: compile: %v", name, err)
			continue
		}
		e, err := xpath.Parse(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !xpath.EvalRaw(e, doc) {
			t.Errorf("%s (%s) is false on a 4MB site — workload query should be satisfiable", name, src)
		}
	}
	for name, src := range SelectionQueries {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sel, err := eval.SelectLocal(doc, sp)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(sel) == 0 {
			t.Errorf("%s (%s) selects nothing", name, src)
		}
	}
}
