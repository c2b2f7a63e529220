package eval

import (
	"repro/internal/boolexpr"
	"repro/internal/xmltree"
)

// Conversions between the arena triplet and the reference evaluator's
// pointer triplet, for the differential tests only.

// legacyOf exports an arena triplet to the reference representation,
// preserving sharing across all three vectors.
func legacyOf(t Triplet) LegacyTriplet {
	memo := make(map[boolexpr.NodeID]*boolexpr.Formula)
	conv := func(ids []boolexpr.NodeID) []*boolexpr.Formula {
		fs := make([]*boolexpr.Formula, len(ids))
		for i, id := range ids {
			fs[i] = t.A.Export(id, memo)
		}
		return fs
	}
	return LegacyTriplet{V: conv(t.V), CV: conv(t.CV), DV: conv(t.DV)}
}

func legacyOfAll(ts map[xmltree.FragmentID]Triplet) map[xmltree.FragmentID]LegacyTriplet {
	out := make(map[xmltree.FragmentID]LegacyTriplet, len(ts))
	for id, t := range ts {
		out[id] = legacyOf(t)
	}
	return out
}

// tripletOf interns a reference triplet into a fresh arena.
func tripletOf(lt LegacyTriplet) Triplet {
	a := boolexpr.NewArena()
	memo := make(map[*boolexpr.Formula]boolexpr.NodeID)
	conv := func(fs []*boolexpr.Formula) []boolexpr.NodeID {
		ids := make([]boolexpr.NodeID, len(fs))
		for i, f := range fs {
			ids[i] = a.Import(f, memo)
		}
		return ids
	}
	return Triplet{A: a, V: conv(lt.V), CV: conv(lt.CV), DV: conv(lt.DV)}
}

func tripletOfAll(lts map[xmltree.FragmentID]LegacyTriplet) map[xmltree.FragmentID]Triplet {
	out := make(map[xmltree.FragmentID]Triplet, len(lts))
	for id, lt := range lts {
		out[id] = tripletOf(lt)
	}
	return out
}

// equalLegacy reports entry-wise structural equality of two reference
// triplets.
func equalLegacy(t, u LegacyTriplet) bool {
	eq := func(a, b []*boolexpr.Formula) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	return eq(t.V, u.V) && eq(t.CV, u.CV) && eq(t.DV, u.DV)
}
