package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/xmltree"
)

// TestAdmissionEstimate pins the admission price of every request kind a
// site serves: work that runs bottomUp over (or ships) fragments weighs
// their size in nodes, everything else the minimum of 1.
func TestAdmissionEstimate(t *testing.T) {
	c, eng, _ := deployFig2(t)
	s2, _ := c.Site("S2") // stores F2 and F3
	size := func(id xmltree.FragmentID) int64 {
		fr, ok := s2.Fragment(id)
		if !ok {
			t.Fatalf("S2 does not store F%d", id)
		}
		return int64(fr.Size())
	}
	_, _, prog, sp := payloadFixture()
	st := eng.SourceTree()
	both := []xmltree.FragmentID{2, 3}
	estimate := admissionEstimate(s2)
	for _, tc := range []struct {
		name string
		req  cluster.Request
		want int64
	}{
		{"evalQual", cluster.Request{Kind: KindEvalQual, Payload: encodeEvalQualReq(evalQualReq{prog: prog, ids: both})}, size(2) + size(3)},
		{"evalQualKeep", cluster.Request{Kind: KindEvalQualKeep, Payload: encodeEvalQualReq(evalQualReq{prog: prog, ids: []xmltree.FragmentID{3}, runKey: "r", st: st})}, size(3)},
		{"fetchFragments", cluster.Request{Kind: KindFetchFragments, Payload: encodeFetchReq([]xmltree.FragmentID{2})}, size(2)},
		{"selectTransfer", cluster.Request{Kind: KindSelectTransfer, Payload: encodeSelectTransferReq(encodeSelectProgram(sp), selectTransferReq{
			frags: []fragDomain{{id: 2, domain: eval.ArrivalDomain(sp)}, {id: 3, domain: eval.ArrivalDomain(sp)}},
		})}, size(2) + size(3)},
		{"resolve on arrival", cluster.Request{Kind: KindResolve, Payload: encodeResolveReq(resolveReq{id: 2, prog: prog, st: st})}, size(2)},
		{"resolve from run state", cluster.Request{Kind: KindResolve, Payload: encodeResolveReq(resolveReq{runKey: "r", id: 2})}, 1},
		{"cleanup", cluster.Request{Kind: KindCleanup, Payload: []byte("r")}, 1},
		{"unknown kind", cluster.Request{Kind: "parbox.nope"}, 1},
		{"undecodable evalQual", cluster.Request{Kind: KindEvalQual, Payload: []byte{0xff}}, 1},
		{"undecodable resolve", cluster.Request{Kind: KindResolve, Payload: []byte{0}}, 1},
	} {
		if got := estimate(tc.req); got != tc.want {
			t.Errorf("%s: weight %d, want %d", tc.name, got, tc.want)
		}
	}
	if size(2) <= 1 || size(3) <= 1 {
		t.Fatalf("fragment sizes %d, %d cannot tell a priced request from the minimum", size(2), size(3))
	}
}
