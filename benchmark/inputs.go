package main

import (
	"fmt"
	"math/rand"
	"sort"

	parbox "repro"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Every input of a run is derived from the seed here; the program under
// test only ever sees the generated documents, query texts and updates.

const sites = 8 // fragments and sites: a star of 8, one fragment per site

// document is one generated XMark tree. The same (seed, nodes) always
// yields the same tree, so every deployment of a run and the mirror the
// answers are checked against are built separately and share no node.
type document struct {
	root      *xmltree.Node
	siteRoots []*xmltree.Node // siteRoots[i] becomes fragment i
}

func buildDocument(seed int64, nodesPerFragment int) (*document, error) {
	mb := float64(nodesPerFragment) / float64(xmark.DefaultNodesPerMB)
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       seed*1_000_003 + 17,
		Parents:    xmark.StarParents(sites),
		MBs:        xmark.EvenMBs(mb*sites, sites),
		NodesPerMB: xmark.DefaultNodesPerMB,
	})
	if err != nil {
		return nil, err
	}
	return &document{root: root, siteRoots: siteRoots}, nil
}

func siteName(i int) frag.SiteID { return frag.SiteID(fmt.Sprintf("S%d", i)) }

// fragmentDocument cuts the document into its star of fragments, one per
// site S0..S7. The document is consumed: its subtrees become fragments.
func fragmentDocument(d *document) (*frag.Forest, frag.Assignment, error) {
	forest, err := xmark.Fragment(d.root, d.siteRoots)
	if err != nil {
		return nil, nil, err
	}
	assign := frag.Assignment{}
	for i := 0; i < sites; i++ {
		assign[xmltree.FragmentID(i)] = siteName(i)
	}
	return forest, assign, nil
}

// mirror is an unfragmented copy of the deployed document that receives
// every update the deployment receives, outside timed regions. Answers are
// checked against parbox.EvaluateLocal on it: an oracle that shares no
// code path with distribution, caching or maintenance.
type mirror struct {
	doc *document
}

func (m *mirror) apply(id xmltree.FragmentID, ops []parbox.UpdateOp) error {
	for _, op := range ops {
		if err := op.Apply(m.doc.siteRoots[id]); err != nil {
			return err
		}
	}
	return nil
}

// pathWithin is the child-index path from a fragment root down to node.
func pathWithin(fragRoot, node *xmltree.Node) []int {
	var rev []int
	for n := node; n != fragRoot; n = n.Parent {
		for i, c := range n.Parent.Children {
			if c == n {
				rev = append(rev, i)
				break
			}
		}
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// vocabulary is the set of distinct texts per leaf label, read off the
// generated document, so query templates stay in step with the generator.
type vocabulary map[string][]string

func readVocabulary(root *xmltree.Node) vocabulary {
	sets := map[string]map[string]bool{}
	root.Walk(func(n *xmltree.Node) {
		if len(n.Children) == 0 && n.Text != "" {
			if sets[n.Label] == nil {
				sets[n.Label] = map[string]bool{}
			}
			sets[n.Label][n.Text] = true
		}
	})
	v := vocabulary{}
	for label, set := range sets {
		for text := range set {
			v[label] = append(v[label], text)
		}
		sort.Strings(v[label])
	}
	return v
}

func (v vocabulary) pick(r *rand.Rand, label string) string {
	texts := v[label]
	if len(texts) == 0 {
		return "none"
	}
	return texts[r.Intn(len(texts))]
}

// adhocTemplates expand to Boolean queries of |QList| between 6 and 30
// (mean about 12, so 16 of them fuse to roughly 180 lanes). Every template
// carries a wide numeric constant, which is what keeps texts from
// repeating; some constants occur in the document and some do not, so
// answers come out both ways.
var adhocTemplates = []func(r *rand.Rand, v vocabulary) string{
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//emailaddress = "mailto:p%d@example.com"`, r.Intn(40000))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//phone = "+%d"`, 1000000+r.Intn(8999999))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//person[phone = "+%d"]`, 1000000+r.Intn(8999999))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//closed_auction/price = "%d.%02d"`, 5+r.Intn(495), r.Intn(100))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//open_auction[initial = "%d.%02d"]`, 5+r.Intn(495), r.Intn(100))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//item[location = %q && quantity = "%d"] && //zipcode = "%d"`,
			v.pick(r, "location"), 1+r.Intn(6), 10000+r.Intn(89999))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//person[name = %q && address/city = %q] || //person[phone = "+%d"]`,
			v.pick(r, "name"), v.pick(r, "city"), 1000000+r.Intn(8999999))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`!(//closed_auction[price = "%d.%02d"]) && label() = site`, 5+r.Intn(495), r.Intn(100))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`//bidder[personref = "person%d"]`, r.Intn(100000))
	},
	func(r *rand.Rand, v vocabulary) string {
		return fmt.Sprintf(`label() = site && //zipcode = "%d"`, 10000+r.Intn(89999))
	},
}

// queryStream hands out query texts that never repeat within a run.
type queryStream struct {
	r    *rand.Rand
	v    vocabulary
	seen map[string]bool
}

func newQueryStream(seed int64, v vocabulary) *queryStream {
	return &queryStream{r: rand.New(rand.NewSource(seed)), v: v, seen: map[string]bool{}}
}

func (s *queryStream) next() string {
	for {
		q := adhocTemplates[s.r.Intn(len(adhocTemplates))](s.r, s.v)
		if !s.seen[q] {
			s.seen[q] = true
			return q
		}
	}
}

func (s *queryStream) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// standingShapes are the standing-query shapes. Each is false on the
// generated document and turns true when one leaf with the shape's label
// holds the query's own trigger token; every other leaf is out of reach.
var standingShapes = []struct {
	leaf  string // label of the leaf whose text triggers the query
	query string // %[1]q is the trigger token
}{
	{"emailaddress", `//person[emailaddress = %[1]q]`},
	{"phone", `//item[quantity] && //person[phone = %[1]q]`},
	{"current", `//open_auction[current = %[1]q] || //closed_auction[price = "0.00" && annotation = %[1]q]`},
	{"annotation", `!(//item[payment = "Barter"]) && //closed_auction[annotation = %[1]q]`},
	{"city", `//person[address/city = %[1]q]`},
	{"from", `//item/mailbox/mail[from = %[1]q] && label() = site`},
	{"increase", `//open_auction[bidder/increase = %[1]q][type = "Regular"]`},
	{"zipcode", `//person[address[zipcode = %[1]q && country]]`},
}

// standingQuery is one standing query with the single-leaf update pair
// that flips it.
type standingQuery struct {
	src      string
	q        *parbox.Prepared
	frag     xmltree.FragmentID
	path     []int  // the trigger leaf inside frag
	token    string // text that turns the query true
	original string // text that turns it false again
}

// standingQueries derives n standing queries and their trigger leaves from
// the mirror. Query k's leaf lives in fragment 1 + k mod 7, and no two
// queries share a leaf.
func standingQueries(m *mirror, n int) ([]*standingQuery, error) {
	leaves := map[string][]*xmltree.Node{} // per (fragment, label), in document order
	used := map[*xmltree.Node]bool{}
	out := make([]*standingQuery, n)
	for k := range out {
		shape := standingShapes[k%len(standingShapes)]
		id := xmltree.FragmentID(1 + k%(sites-1))
		key := fmt.Sprintf("%d/%s", id, shape.leaf)
		if _, ok := leaves[key]; !ok {
			leaves[key] = m.doc.siteRoots[id].FindAll(shape.leaf)
		}
		var leaf *xmltree.Node
		for _, cand := range leaves[key] {
			if !used[cand] && len(cand.Children) == 0 {
				leaf = cand
				break
			}
		}
		if leaf == nil {
			return nil, fmt.Errorf("standing query %d: fragment %d has no free %q leaf", k, id, shape.leaf)
		}
		used[leaf] = true
		token := fmt.Sprintf("trigger-%03d", k)
		src := fmt.Sprintf(shape.query, token)
		q, err := parbox.Prepare(src)
		if err != nil {
			return nil, fmt.Errorf("standing query %d: %w", k, err)
		}
		out[k] = &standingQuery{
			src: src, q: q, frag: id,
			path:  pathWithin(m.doc.siteRoots[id], leaf),
			token: token, original: leaf.Text,
		}
	}
	return out, nil
}

// plannedUpdate is one single-op View.Update. flips names the standing
// query the update flips, -1 when it flips none.
type plannedUpdate struct {
	frag  xmltree.FragmentID
	ops   []parbox.UpdateOp
	flips int
}

// updatePlanner emits the update stream: in every 8 updates, 4 SetTexts
// that match nothing, one pair of SetTexts that turns one standing query
// true and false again, and one OpInsert/OpDelete pair. After any multiple
// of 8 the document answers every standing query as it did at the start.
type updatePlanner struct {
	m        *mirror
	flipped  []*standingQuery // the standing queries the flip pairs take in turn
	noopLeaf [sites][]int
	probeAt  [sites][]int // the node probes are inserted under
	n        int
	turn     int
	flipK    int
	probeOn  xmltree.FragmentID
}

func newUpdatePlanner(m *mirror, flipped []*standingQuery) (*updatePlanner, error) {
	p := &updatePlanner{m: m, flipped: flipped}
	for id := 1; id < sites; id++ {
		root := m.doc.siteRoots[id]
		leaf := root.FindFirst("shipping")
		box := root.FindFirst("mailbox")
		if leaf == nil || box == nil {
			return nil, fmt.Errorf("fragment %d has no shipping leaf or mailbox to update", id)
		}
		p.noopLeaf[id] = pathWithin(root, leaf)
		p.probeAt[id] = pathWithin(root, box)
	}
	return p, nil
}

// nextFragment walks fragments 1..7 in turn, so every seed spreads its
// updates — and with them the WAL bytes each site's store has appended
// since its last checkpoint — the same way.
func (p *updatePlanner) nextFragment() xmltree.FragmentID {
	p.turn++
	return xmltree.FragmentID(1 + p.turn%(sites-1))
}

// next plans the following update against the mirror's current state; the
// caller applies it to the deployment and then to the mirror.
func (p *updatePlanner) next() plannedUpdate {
	slot := p.n % 8
	p.n++
	switch slot {
	case 1, 5:
		k := p.flipK
		sq := p.flipped[k]
		on := slot == 1
		text := sq.original
		if on {
			text = sq.token
		} else {
			p.flipK = (p.flipK + 1) % len(p.flipped)
		}
		return plannedUpdate{frag: sq.frag, flips: k,
			ops: []parbox.UpdateOp{{Op: parbox.OpSetText, Path: sq.path, Text: text}}}
	case 3:
		p.probeOn = p.nextFragment()
		return plannedUpdate{frag: p.probeOn, flips: -1,
			ops: []parbox.UpdateOp{{Op: parbox.OpInsert, Path: p.probeAt[p.probeOn], Label: "probe", Text: fmt.Sprintf("probe-%d", p.n)}}}
	case 7:
		id := p.probeOn
		box, err := views.NodeAt(p.m.doc.siteRoots[id], p.probeAt[id])
		path := append([]int(nil), p.probeAt[id]...)
		if err == nil {
			path = append(path, len(box.Children)-1)
		}
		return plannedUpdate{frag: id, flips: -1,
			ops: []parbox.UpdateOp{{Op: parbox.OpDelete, Path: path}}}
	default:
		id := p.nextFragment()
		return plannedUpdate{frag: id, flips: -1,
			ops: []parbox.UpdateOp{{Op: parbox.OpSetText, Path: p.noopLeaf[id], Text: fmt.Sprintf("ships-%d", p.n)}}}
	}
}

// selectionSources are the four XMark selection queries in a fixed order.
func selectionSources() []string {
	names := make([]string, 0, len(xmark.SelectionQueries))
	for name := range xmark.SelectionQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = xmark.SelectionQueries[name]
	}
	return out
}
