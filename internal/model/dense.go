package model

import (
	"fmt"

	"accelscore/internal/forest"
)

// DenseNode is one node word in the Fig. 4b memory layout: four 32-bit
// fields. For a decision node the fields are (left, right, attribute,
// threshold). A negative first field marks a leaf whose class id is encoded
// as -(class+1); child links may also be negative, encoding "virtual leaf"
// classes directly so that a depth-d tree needs only its d decision levels
// in memory — this is how the paper fits a "10 level deep" tree in 2^10
// words (§III-B).
type DenseNode struct {
	// Left is the left-child node index, or -(class+1) when this node is a
	// leaf (then no other field is meaningful) or when the left child is a
	// leaf at the level below the stored levels.
	Left int32
	// Right is the right-child node index or a -(class+1) virtual leaf.
	Right int32
	// Attr is the comparison attribute (feature index).
	Attr int32
	// Threshold is the comparison value; inputs with x[Attr] < Threshold go
	// left.
	Threshold float32
}

// EncodeLeafRef encodes a class id as a negative node reference.
func EncodeLeafRef(class int) int32 { return -int32(class) - 1 }

// DecodeLeafRef recovers the class id from a negative node reference.
func DecodeLeafRef(ref int32) int { return int(-ref - 1) }

// Dense is a forest compiled to the flat full-binary-tree layout used by the
// FPGA tree memories. Trees are stored consecutively, each padded to
// WordsPerTree node words ("our memory layout assumes a full binary tree
// with no missing nodes", §III-B).
type Dense struct {
	// Trees is the ensemble size.
	Trees int
	// Levels is the number of stored decision levels; the layout supports
	// evaluating trees up to edge-depth Levels.
	Levels int
	// WordsPerTree is 2^Levels: the padded per-tree footprint.
	WordsPerTree int
	// Nodes holds Trees*WordsPerTree node words.
	Nodes []DenseNode
	// NumFeatures and NumClasses record the model schema.
	NumFeatures, NumClasses int
}

// CompileDense lowers a classifier forest into the dense layout with the
// given number of decision levels. Every tree must have edge-depth <=
// levels; deeper trees are rejected (the FPGA cannot process them — §III-B —
// use the hybrid CPU fallback instead).
func CompileDense(f *forest.Forest, levels int) (*Dense, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Kind != forest.Classifier {
		return nil, fmt.Errorf("model: dense layout supports classifiers only (got %s)", f.Kind)
	}
	if levels < 1 || levels > 30 {
		return nil, fmt.Errorf("model: levels %d out of range [1,30]", levels)
	}
	words := 1 << uint(levels)
	d := &Dense{
		Trees:        len(f.Trees),
		Levels:       levels,
		WordsPerTree: words,
		Nodes:        make([]DenseNode, len(f.Trees)*words),
		NumFeatures:  f.NumFeatures,
		NumClasses:   f.NumClasses,
	}
	for t, tree := range f.Trees {
		if depth := tree.Depth(); depth > levels {
			return nil, fmt.Errorf("model: tree %d depth %d exceeds %d levels", t, depth, levels)
		}
		base := t * words
		// Pad every slot with an inert leaf so unreachable words are valid.
		for i := 0; i < words; i++ {
			d.Nodes[base+i] = DenseNode{Left: EncodeLeafRef(0)}
		}
		if err := d.place(tree.Root, base, 0, 0, levels); err != nil {
			return nil, fmt.Errorf("model: tree %d: %w", t, err)
		}
	}
	return d, nil
}

// place writes node n at heap slot idx (tree-local), recursing to children.
// Children of a node at slot i live at 2i+1 and 2i+2; children that would
// fall below the stored levels must be leaves and are encoded as virtual
// leaf references in the parent word.
func (d *Dense) place(n *forest.Node, base, idx, depth, levels int) error {
	if n.IsLeaf() {
		d.Nodes[base+idx] = DenseNode{Left: EncodeLeafRef(n.Class)}
		return nil
	}
	word := DenseNode{Attr: int32(n.Feature), Threshold: n.Threshold}
	leftIdx, rightIdx := 2*idx+1, 2*idx+2
	if depth == levels-1 {
		// Children are below the stored levels: they must be leaves.
		if !n.Left.IsLeaf() || !n.Right.IsLeaf() {
			return fmt.Errorf("non-leaf child at level %d (tree deeper than %d levels)", depth+1, levels)
		}
		word.Left = EncodeLeafRef(n.Left.Class)
		word.Right = EncodeLeafRef(n.Right.Class)
		d.Nodes[base+idx] = word
		return nil
	}
	word.Left = int32(leftIdx)
	word.Right = int32(rightIdx)
	d.Nodes[base+idx] = word
	if err := d.place(n.Left, base, leftIdx, depth+1, levels); err != nil {
		return err
	}
	return d.place(n.Right, base, rightIdx, depth+1, levels)
}

// WalkNodes evaluates one tree's node-word memory (as loaded into a PE tree
// memory) for a single input row and returns the class id.
func WalkNodes(nodes []DenseNode, row []float32) int {
	node := nodes[0]
	for {
		// Leaf words have a negative first field (§III-B) and a zero right
		// field — a decision node's right child index can never be 0 (slot 0
		// is the root) and a virtual right leaf is negative, so the pair is
		// unambiguous.
		if node.Left < 0 && node.Right == 0 {
			return DecodeLeafRef(node.Left)
		}
		var next int32
		if row[node.Attr] < node.Threshold {
			next = node.Left
		} else {
			next = node.Right
		}
		if next < 0 {
			return DecodeLeafRef(next)
		}
		node = nodes[next]
	}
}

// TreeSlice returns the node words of tree t.
func (d *Dense) TreeSlice(t int) []DenseNode {
	base := t * d.WordsPerTree
	return d.Nodes[base : base+d.WordsPerTree]
}
