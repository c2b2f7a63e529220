package xmltree

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// Binary wire format for shipping whole fragments (what NaiveCentralized
// pays for). Pre-order; per node:
//
//	flags byte (bit0 = virtual)
//	if virtual:  uvarint fragment id
//	else:        uvarint label length + label bytes,
//	             uvarint text length + text bytes
//	uvarint child count, then the children
//
// The format is compact and deterministic, so the byte counts charged to the
// network cost model are reproducible across runs and platforms.

const flagVirtual byte = 1

// ErrBadTree is wrapped by binary decoding failures.
var ErrBadTree = errors.New("xmltree: malformed tree encoding")

// maxChildren bounds the child count a decoder accepts per node, to refuse
// absurd allocations from hostile input.
const maxChildren = 1 << 26

// AppendEncoded appends the binary encoding of the subtree at n to dst.
func AppendEncoded(dst []byte, n *Node) []byte {
	if n.Virtual {
		dst = append(dst, flagVirtual)
		dst = AppendFragmentID(dst, n.Frag)
	} else {
		dst = append(dst, 0)
		dst = wire.AppendString(dst, n.Label)
		dst = wire.AppendString(dst, n.Text)
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	for _, c := range n.Children {
		dst = AppendEncoded(dst, c)
	}
	return dst
}

// Encode returns the binary encoding of the subtree at n. The buffer is
// presized to the exact EncodedSize, so encoding a fragment for shipping
// performs one allocation instead of O(log size) growth copies.
func Encode(n *Node) []byte { return AppendEncoded(make([]byte, 0, EncodedSize(n)), n) }

// EncodedSize returns len(Encode(n)) without building the buffer. The
// cluster layer uses it to charge transfer costs without double-allocating.
func EncodedSize(n *Node) int {
	size := 0
	n.Walk(func(c *Node) {
		size++ // flags
		if c.Virtual {
			size += wire.UvarintLen(uint64(uint32(c.Frag)))
		} else {
			size += wire.UvarintLen(uint64(len(c.Label))) + len(c.Label)
			size += wire.UvarintLen(uint64(len(c.Text))) + len(c.Text)
		}
		size += wire.UvarintLen(uint64(len(c.Children)))
	})
	return size
}

// AppendFragmentID appends id the way every payload carries fragment ids:
// the uvarint of its 32 bits, so that NoParent-style negative ids survive.
func AppendFragmentID(dst []byte, id FragmentID) []byte {
	return binary.AppendUvarint(dst, uint64(uint32(id)))
}

// ReadFragmentID reads an id written by AppendFragmentID.
func ReadFragmentID(r *wire.Reader) FragmentID {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("fragment id %d overflows", v)
	}
	return FragmentID(uint32(v))
}

// AppendFragmentIDs appends a counted list of fragment ids.
func AppendFragmentIDs(dst []byte, ids []FragmentID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = AppendFragmentID(dst, id)
	}
	return dst
}

// ReadFragmentIDs reads a list written by AppendFragmentIDs.
func ReadFragmentIDs(r *wire.Reader) []FragmentID {
	ids := make([]FragmentID, r.Count(1))
	for i := range ids {
		ids[i] = ReadFragmentID(r)
	}
	return ids
}

// treeDecoder tracks position while decoding. Nodes are carved out of
// slabs instead of allocated one by one: the encoding spends at least four
// bytes per element node (flag, two string lengths, child count), so
// len(buf)/4 estimates the node count and the first slab usually serves
// the whole tree — the decode-side analogue of Encode's EncodedSize
// presizing.
type treeDecoder struct {
	r      wire.Reader
	est    int // slab size: the node estimate, capped at decoderSlabMax
	slab   []Node
	labels map[string]string // interned labels; see label
}

// decoderSlabMax caps slab size so a small message never provokes a large
// allocation and a huge tree allocates incrementally.
const decoderSlabMax = 4096

// minNodeBytes is what the smallest node — a virtual one: flag, fragment
// id, child count — spends on itself.
const minNodeBytes = 3

func newTreeDecoder(buf []byte) *treeDecoder {
	return &treeDecoder{r: wire.NewReader(buf, ErrBadTree), est: min(len(buf)/4+1, decoderSlabMax)}
}

func (d *treeDecoder) alloc() *Node {
	if len(d.slab) == 0 {
		d.slab = make([]Node, d.est)
	}
	n := &d.slab[0]
	d.slab = d.slab[1:]
	return n
}

// label reads a label field, interned: document labels draw from a small
// repeated alphabet, so interning dedupes the per-node allocations and —
// more importantly — gives every occurrence of a label the same backing
// array, letting downstream string comparisons (kernel self-test memos)
// short-circuit on pointer equality instead of comparing bytes.
func (d *treeDecoder) label() string {
	b := d.r.Bytes()
	if s, ok := d.labels[string(b)]; ok { // no alloc: map lookup on string(bytes)
		return s
	}
	s := string(b)
	if d.labels == nil {
		d.labels = make(map[string]string, 16)
	}
	d.labels[s] = s
	return s
}

// node reads one node's own fields and sizes its child slice; the
// children themselves follow in the input and are filled in by tree.
// Child counts are charged to the reader's budget, so however the counts
// nest, the child slices of one decode total at most len(buf)/3 entries
// and allocation stays linear in the input.
func (d *treeDecoder) node() *Node {
	flags := d.r.Byte()
	n := d.alloc()
	if flags&flagVirtual != 0 {
		n.Virtual = true
		n.Frag = ReadFragmentID(&d.r)
	} else {
		n.Label = d.label()
		n.Text = d.r.String()
	}
	nc := d.r.Count(minNodeBytes)
	if nc > maxChildren {
		d.r.Fail("child count %d exceeds %d", nc, maxChildren)
	} else if n.Virtual && nc != 0 {
		d.r.Fail("virtual node with %d children", nc)
	} else if nc > 0 {
		n.Children = make([]*Node, nc)
	}
	return n
}

// tree decodes one pre-order subtree. It keeps the nodes still waiting
// for children on an explicit stack rather than recursing, so nesting
// depth costs heap, not goroutine stack: a well-formed chain a million
// deep decodes like any other tree.
func (d *treeDecoder) tree() (*Node, error) {
	type open struct {
		n    *Node
		next int // index of the next child slot to fill
	}
	root := d.node()
	stack := make([]open, 0, 32) // deeper than most documents: stays off the heap
	if len(root.Children) > 0 {
		stack = append(stack, open{n: root})
	}
	for len(stack) > 0 && d.r.Err() == nil {
		top := &stack[len(stack)-1]
		c := d.node()
		c.Parent = top.n
		top.n.Children[top.next] = c
		if top.next++; top.next == len(top.n.Children) {
			stack = stack[:len(stack)-1]
		}
		if len(c.Children) > 0 {
			stack = append(stack, open{n: c})
		}
	}
	if err := d.r.Err(); err != nil {
		return nil, err
	}
	return root, nil
}

// Decode decodes a subtree encoded by Encode, consuming the whole buffer.
func Decode(buf []byte) (*Node, error) {
	d := newTreeDecoder(buf)
	n, err := d.tree()
	if err != nil {
		return nil, err
	}
	return n, d.r.Done()
}

// DecodeFrom decodes one subtree from the front of buf, returning the node
// and the number of bytes consumed, so multiple fragments can be shipped in
// one message.
func DecodeFrom(buf []byte) (*Node, int, error) {
	d := newTreeDecoder(buf)
	n, err := d.tree()
	return n, d.r.Offset(), err
}
