package eval

import "repro/internal/xpath"

// leafMemo memoizes a single-word kernel's leaf plan. EvalLeafPlan is a
// pure function of the base self-test word, and a document's leaves
// collapse to a handful of distinct bases (most match no test at all).
// Direct-mapped, 4 slots, multiplicative hash; a collision just
// recomputes. The zero value is empty.
type leafMemo struct {
	key [4]uint64
	val [4]uint64
	set [4]bool
}

// plan returns kern.EvalLeafPlan(base).
func (m *leafMemo) plan(kern *xpath.LaneKernel, base uint64) uint64 {
	s := (base * 0x9e3779b97f4a7c15) >> 62
	if !m.set[s] || m.key[s] != base {
		m.key[s], m.val[s], m.set[s] = base, kern.EvalLeafPlan(base), true
	}
	return m.val[s]
}
