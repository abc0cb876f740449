package forest

import (
	"fmt"

	"accelscore/internal/kernel"
)

// Compile lowers the forest into the shared flat traversal kernel form: one
// set of parallel node arrays for the whole ensemble, scored by
// kernel.Compiled's blocked batch loop. Every functional CPU path — the
// Scikit-learn and ONNX engines, PredictBatch, the pipeline's compiled-model
// cache — consumes this single lowering.
func (f *Forest) Compile() (*kernel.Compiled, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	c := kernel.New(max(f.NumClasses, 1), f.Kind == Boosted, f.BaseScore)
	for i, t := range f.Trees {
		c.BeginTree()
		if err := emitNode(c, t.Root); err != nil {
			return nil, fmt.Errorf("forest: compiling tree %d: %w", i, err)
		}
	}
	if err := c.Seal(); err != nil {
		return nil, err
	}
	return c, nil
}

// emitNode appends n's subtree to the compiled arrays in pre-order,
// patching child links after each subtree is emitted.
func emitNode(c *kernel.Compiled, n *Node) error {
	_, err := emitSubtree(c, n)
	return err
}

func emitSubtree(c *kernel.Compiled, n *Node) (int32, error) {
	if n == nil {
		return 0, fmt.Errorf("nil node")
	}
	if n.IsLeaf() {
		return c.EmitLeaf(int32(n.Class), n.Value), nil
	}
	idx := c.EmitSplit(int32(n.Feature), n.Threshold)
	left, err := emitSubtree(c, n.Left)
	if err != nil {
		return 0, err
	}
	right, err := emitSubtree(c, n.Right)
	if err != nil {
		return 0, err
	}
	c.SetChildren(idx, left, right)
	return idx, nil
}
