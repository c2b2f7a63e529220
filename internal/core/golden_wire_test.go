package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/golden"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// goldenQueries mix every connective over the XMark vocabulary so the
// fragments with virtual children ship AND, OR and NOT nodes over both V
// and DV variables, not just bare variables.
var goldenQueries = []string{
	`//person[address/city = "Seoul"] && !(//item[payment = "Cash"])`,
	`//open_auction[bidder/increase = "7.00"] || //closed_auction[quantity = "2"]`,
	`/site/people/person/name = "Ada Ahmed"`,
	`!(//beacon[text() = "beacon-0005"]) && //category`,
	`//item[location = "Japan" && quantity = "3"]//from`,
	`//site//regions//item[incategory = "category1"] || !(//person[phone])`,
}

// TestEvalQualWireGolden pins the evalQual response bytes of a fixed
// (XMark seed, query, fragmentation) fixture to the encoding recorded
// before the pointer formula codec was removed: one virtual-free
// fragment, fragments with virtual children, and a multi-word batch
// program, each through the plain and the triplet-cache handler path.
func TestEvalQualWireGolden(t *testing.T) {
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       20060912,
		Parents:    xmark.FT3Parents(),
		MBs:        xmark.FT3MBs(1),
		NodesPerMB: 40,
		Beacons:    []string{"", "", "", "", "", xmark.BeaconName(5), "", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		t.Fatal(err)
	}
	assign := frag.Assignment{}
	for _, id := range forest.IDs() {
		assign[id] = frag.SiteID(fmt.Sprintf("S%d", id))
	}
	c := cluster.New(cluster.DefaultCostModel())
	if _, err := Deploy(c, forest, assign); err != nil {
		t.Fatal(err)
	}

	single := xpath.MustCompileString(goldenQueries[0])
	var exprs []xpath.Expr
	for i := 0; i < 4; i++ { // repeat with distinct literals to pass 128 lanes
		for _, q := range goldenQueries {
			exprs = append(exprs, xpath.MustParse(strings.ReplaceAll(q, `= "`, fmt.Sprintf(`= "%d`, i))))
		}
	}
	for _, q := range goldenQueries {
		exprs = append(exprs, xpath.MustParse(q))
	}
	batch, _ := xpath.CompileBatch(exprs)
	if w := batch.Kernel().Words(); w < 2 {
		t.Fatalf("batch program compiled to %d kernel words, want a multi-word program", w)
	}

	cases := []struct {
		name string
		prog *xpath.Program
		id   xmltree.FragmentID
	}{
		{"single_virtualfree_f7", single, 7},
		{"single_virtual_f1", single, 1},
		{"single_virtual_f0", single, 0},
		{"batch_virtualfree_f5", batch, 5},
		{"batch_virtual_f0", batch, 0},
		{"batch_virtual_f2", batch, 2},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []byte
			for _, fp := range []uint64{0, tc.prog.Fingerprint(), tc.prog.Fingerprint()} { // plain, cache miss, cache hit
				resp, _, err := c.Call(ctx, "S0", assign[tc.id], cluster.Request{
					Kind:    KindEvalQual,
					Payload: encodeEvalQualReq(evalQualReq{prog: tc.prog, ids: []xmltree.FragmentID{tc.id}, fp: fp}),
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != nil && !bytes.Equal(got, resp.Payload) {
					t.Fatalf("fp=%d: response differs from the uncached handler's", fp)
				}
				got = resp.Payload
			}
			golden.Check(t, "evalqual_"+tc.name, got)
		})
	}
}
