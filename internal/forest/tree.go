// Package forest implements the random-forest substrate: CART decision-tree
// training, bootstrap-aggregated forests, majority-vote classification and
// mean-aggregated regression (paper §II), plus the structural statistics the
// timing models need (tree count, depth, average path length).
//
// The split convention is fixed project-wide: an input goes LEFT when
// x[feature] < threshold, RIGHT otherwise. Every backend — the CPU engines,
// the FPGA node layout (Fig. 4b) and the Hummingbird tensor compiler —
// follows this convention, which the cross-backend integration tests verify.
package forest

import "fmt"

// Node is one node of a decision tree. Leaf nodes have Left == Right == nil.
type Node struct {
	// Feature is the comparison attribute for decision nodes.
	Feature int
	// Threshold is the comparison value: x[Feature] < Threshold goes left.
	Threshold float32
	// Left and Right are the child nodes (nil for leaves).
	Left, Right *Node
	// Class is the majority class at this node (valid for leaves; also
	// maintained on internal nodes so depth-truncated evaluation can stop
	// anywhere, which the FPGA/CPU hybrid mode for depth>10 trees relies
	// on).
	Class int
	// Value is the mean regression target of the training rows that reached
	// this node.
	Value float64
	// Samples is the number of training rows that reached this node.
	Samples int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Predict walks the tree for one input row and returns the reached leaf.
func (n *Node) Predict(row []float32) *Node {
	cur := n
	for !cur.IsLeaf() {
		if row[cur.Feature] < cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur
}

// Tree is a single trained decision tree.
type Tree struct {
	Root *Node
	// NumFeatures and NumClasses record the training schema.
	NumFeatures int
	NumClasses  int
}

// PredictClass returns the class label for one row.
func (t *Tree) PredictClass(row []float32) int {
	return t.Root.Predict(row).Class
}

// PredictValue returns the regression value for one row.
func (t *Tree) PredictValue(row []float32) float64 {
	return t.Root.Predict(row).Value
}

// Depth returns the maximum root-to-leaf edge count.
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// AvgPathLength returns the expected root-to-leaf path length weighted by
// the training sample counts at each leaf — the quantity the CPU/GPU timing
// models use as visits-per-record.
func (t *Tree) AvgPathLength() float64 {
	totalSamples, weighted := pathStats(t.Root, 0)
	if totalSamples == 0 {
		return 0
	}
	return weighted / float64(totalSamples)
}

func pathStats(n *Node, depth int) (samples int, weightedDepth float64) {
	if n == nil {
		return 0, 0
	}
	if n.IsLeaf() {
		return n.Samples, float64(n.Samples) * float64(depth)
	}
	ls, lw := pathStats(n.Left, depth+1)
	rs, rw := pathStats(n.Right, depth+1)
	return ls + rs, lw + rw
}

// Validate checks structural invariants: internal nodes have two children,
// feature indices are in range, and leaf classes are valid.
func (t *Tree) Validate() error {
	return validateNode(t.Root, t.NumFeatures, t.NumClasses)
}

func validateNode(n *Node, features, classes int) error {
	if n == nil {
		return fmt.Errorf("forest: nil node")
	}
	if n.IsLeaf() {
		if n.Class < 0 || (classes > 0 && n.Class >= classes) {
			return fmt.Errorf("forest: leaf class %d out of range [0,%d)", n.Class, classes)
		}
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("forest: internal node with a single child")
	}
	if n.Feature < 0 || n.Feature >= features {
		return fmt.Errorf("forest: split feature %d out of range [0,%d)", n.Feature, features)
	}
	if err := validateNode(n.Left, features, classes); err != nil {
		return err
	}
	return validateNode(n.Right, features, classes)
}
