// Pubsub: content-based filtering over a distributed XMark auction
// document — the xml data dissemination workload the paper cites as the
// home turf of Boolean XPath (publish-subscribe systems).
//
// Subscriptions are server-pushed: System.Subscribe registers each query
// as a standing program at every site, the sites keep its per-fragment
// triplets incrementally maintained across updates (spine recomputation,
// not full bottomUp), and when an update flips a fragment's root
// formulas the site pushes a delta from which the coordinator re-solves
// and notifies the subscriber. Nobody polls: an update that cannot
// affect a subscription costs that subscription nothing, regardless of
// how many subscribers are standing.
//
//	go run ./examples/pubsub
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	parbox "repro"
	"repro/internal/xmark"
)

func main() {
	// Three auction "sites" (paper terminology) hosted by three servers.
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       42,
		Parents:    xmark.StarParents(3),
		MBs:        []float64{0.4, 0.4, 0.4},
		NodesPerMB: 2500,
	})
	if err != nil {
		log.Fatal(err)
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := parbox.Deploy(forest, parbox.Assignment{
		0: "hub", 1: "mirror-eu", 2: "mirror-asia",
	}, parbox.WithTripletCache())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	subscriptions := []string{
		`//item[location = "Kenya"]`,
		`//item[quantity = "5" && location = "Japan"]`,
		`//open_auction[bidder/increase = "9.00"]`,
		`//closed_auction[annotation = "mint"]`,
		`//person[address/city = "Edinburgh"]`,
		`//item[payment = "Bitcoin"]`, // never matches in 2006
	}

	fmt.Printf("document: %d nodes over 3 sites\n\n", sys.SourceTree().TotalSize())

	// Register every subscription: one standing program per query at each
	// site, baseline answer solved from the registration triplets.
	subs := make([]*parbox.Subscription, len(subscriptions))
	start := time.Now()
	for i, src := range subscriptions {
		q, err := parbox.Prepare(src)
		if err != nil {
			log.Fatalf("%s: %v", src, err)
		}
		if subs[i], err = sys.Subscribe(ctx, q); err != nil {
			log.Fatalf("%s: %v", src, err)
		}
	}
	took := time.Since(start)
	for i, src := range subscriptions {
		status := "  -  "
		if subs[i].Answer() {
			status = "FIRE "
		}
		fmt.Printf("%s %s\n", status, src)
	}
	fmt.Printf("\nregistered %d standing subscriptions in %v — no polling from here on\n\n",
		len(subscriptions), took.Round(time.Microsecond))

	// The publisher side: content updates to the document. A Bitcoin item
	// appears at the Asian mirror; each update's maintenance runs only
	// the touched spines at one site, and only subscriptions whose root
	// formulas flip hear anything.
	viewRes, err := sys.Exec(ctx, parbox.MustPrepare(`//item`), parbox.WithMode(parbox.ModeMaterialize))
	if err != nil {
		log.Fatal(err)
	}
	view := viewRes.View
	bitcoin := subs[5]
	fmt.Println(`publisher: inserting <item><payment>Bitcoin</payment></item> at mirror-asia`)
	frag := parbox.FragmentID(2)
	if _, err := view.Update(ctx, frag, []parbox.UpdateOp{
		{Op: parbox.OpInsert, Label: "item"},
	}); err != nil {
		log.Fatal(err)
	}
	fr, _ := forest.Fragment(frag)
	itemPath := []int{len(fr.Root.Children) - 1}
	if _, err := view.Update(ctx, frag, []parbox.UpdateOp{
		{Op: parbox.OpInsert, Path: itemPath, Label: "payment", Text: "Bitcoin"},
	}); err != nil {
		log.Fatal(err)
	}

	// The pushed notification arrives without any query being re-run.
	select {
	case n := <-bitcoin.C():
		for !n.Flipped {
			n = <-bitcoin.C()
		}
		fmt.Printf("pushed:   %s -> %v (fragment %d, version %d)\n",
			subscriptions[5], n.Answer, n.Frag, n.Version)
	case <-time.After(5 * time.Second):
		log.Fatal("no notification")
	}

	// Retract it: the subscription flips back, again pushed.
	fmt.Println("publisher: deleting the item again")
	if _, err := view.Update(ctx, frag, []parbox.UpdateOp{
		{Op: parbox.OpDelete, Path: itemPath},
	}); err != nil {
		log.Fatal(err)
	}
	select {
	case n := <-bitcoin.C():
		for !n.Flipped {
			n = <-bitcoin.C()
		}
		fmt.Printf("pushed:   %s -> %v\n\n", subscriptions[5], n.Answer)
	case <-time.After(5 * time.Second):
		log.Fatal("no notification")
	}

	// For fired subscriptions a dissemination system needs the matching
	// elements, not just a bit: the selection extension finds them without
	// moving the document either.
	kenya := parbox.MustPrepare(`//item[location = "Kenya"]/name`)
	sel, err := sys.Exec(ctx, kenya, parbox.WithMode(parbox.ModeSelect))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matching Kenyan item names: %d nodes", sel.Matched)
	shown := 0
	for fragID, paths := range sel.Selection.Paths {
		fr, _ := forest.Fragment(fragID)
		for _, p := range paths {
			node := fr.Root
			for _, i := range p {
				node = node.Children[i]
			}
			if shown < 5 {
				fmt.Printf("\n  F%d %v: %q", fragID, p, node.Text)
			}
			shown++
		}
	}
	fmt.Println()
}
