package kernel_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"accelscore/internal/kernel"
)

// The fuzz input is a little program for the builder API followed by row
// data. Byte 0: bit 0 boosted, bits 1-3 classes-2. Byte 1: tree count - 1
// (mod 4). Byte 2: row count (mod 81, so up to one block, a group and a
// remainder). Then per tree a pre-order description — fuzzLeaf, class; or
// fuzzSplit, feature, four threshold bytes, left subtree, right subtree —
// and, after the trees, any number of fuzzLink records (parent, left, right:
// node indices, taken mod the node count plus one so that "one past the
// end" is expressible) that re-point links and so build the graphs Seal has
// to refuse. Whatever is left is row cells, four bytes each, any bit
// pattern; a short input repeats.
const (
	fuzzLeaf  = 0
	fuzzSplit = 1
	fuzzLink  = 2

	fuzzFeatures = 3
	fuzzMaxNodes = 64 // per tree: room for a depth-24 chain
)

// fuzzInput reads the input as a cycle, so every input is long enough.
type fuzzInput struct {
	data []byte
	pos  int
}

func (in *fuzzInput) byte() byte {
	b := in.data[in.pos%len(in.data)]
	in.pos++
	return b
}

func (in *fuzzInput) float() float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32([]byte{in.byte(), in.byte(), in.byte(), in.byte()}))
}

// FuzzKernelPredict: for any ensemble the builder API can express and any
// float32 bit patterns in the rows, either Seal refuses the ensemble or the
// three batch entry points agree with the row-at-a-time oracle.
func FuzzKernelPredict(f *testing.F) {
	leaf := func(class byte) []byte { return []byte{fuzzLeaf, class} }
	split := func(feature byte, threshold float32, left, right []byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{fuzzSplit, feature}, math.Float32bits(threshold))
		return append(append(b, left...), right...)
	}
	nan := float32(math.NaN())
	chain := leaf(1)
	for d := 0; d < 24; d++ {
		chain = split(byte(d), float32(d)/24, leaf(byte(d)), chain)
	}
	rows := []byte{0, 0, 0xC0, 0x7F, 0, 0, 0xC0, 0xFF, 0, 0, 0x80, 0x7F, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0x3F}
	for _, seed := range [][]byte{
		// Vote, 3 classes: a single leaf, a stump, a depth-24 chain.
		slices.Concat([]byte{2, 2, 70}, leaf(2), split(0, 0.5, leaf(0), leaf(1)), chain, rows),
		// Boosted: NaN and infinite thresholds.
		slices.Concat([]byte{1, 1, 17}, split(1, nan, leaf(0), leaf(1)),
			split(2, float32(math.Inf(1)), leaf(1), split(0, 0, leaf(0), leaf(1))), rows),
		// The graphs Seal refuses: a self-link, a two-node cycle, a link into
		// the next tree, a shared subtree.
		slices.Concat([]byte{0, 1, 9}, split(0, 0.5, leaf(0), leaf(1)), leaf(0), []byte{fuzzLink, 0, 0, 1}, rows),
		slices.Concat([]byte{0, 0, 9}, split(0, 0.5, split(0, 0.25, leaf(0), leaf(1)), leaf(1)), []byte{fuzzLink, 1, 2, 0}, rows),
		slices.Concat([]byte{0, 1, 9}, split(0, 0.5, leaf(0), leaf(1)), leaf(1), []byte{fuzzLink, 0, 1, 3}, rows),
		slices.Concat([]byte{0, 0, 9}, split(0, 0.5, split(0, 0.25, leaf(0), leaf(1)), leaf(1)), []byte{fuzzLink, 0, 1, 3}, rows),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		in := &fuzzInput{data: data}
		head := in.byte()
		boosted, classes := head&1 == 1, 2+int(head>>1&7)%6
		trees, n := 1+int(in.byte())%4, int(in.byte())%81

		c := kernel.New(classes, boosted, 0)
		// budget is how many more nodes the tree may commit to; a split
		// commits to its two children.
		var budget int
		var emit func() int32
		emit = func() int32 {
			if budget < 2 || in.byte()%3 == fuzzLeaf {
				class := in.byte()
				return c.EmitLeaf(int32(int(class)%classes), float64(int8(class)))
			}
			budget -= 2
			node := c.EmitSplit(int32(in.byte()%fuzzFeatures), in.float())
			left := emit()
			right := emit()
			c.SetChildren(node, left, right)
			return node
		}
		for i := 0; i < trees; i++ {
			c.BeginTree()
			budget = fuzzMaxNodes - 1
			emit()
		}
		for nodes := c.NumNodes(); in.pos < len(data) && in.byte() == fuzzLink; {
			parent, left, right := int(in.byte())%nodes, int(in.byte())%(nodes+1), int(in.byte())%(nodes+1)
			c.SetChildren(int32(parent), int32(left), int32(right))
		}
		if c.Seal() != nil {
			return // refused: nothing to score
		}

		x := make([]float32, n*fuzzFeatures)
		for i := range x {
			x[i] = in.float()
		}
		mask := in.byte() | 1
		sel := kernel.SelectionFromFunc(n, func(r int) bool { return mask>>(r%8)&1 == 1 })
		want, wantSel := make([]int, n), []int{}
		wantCounts := make([]int64, classes)
		for r := range want {
			want[r] = c.PredictRow(x[r*fuzzFeatures:(r+1)*fuzzFeatures], nil)
			if sel.Selected(r) {
				wantSel = append(wantSel, want[r])
				wantCounts[want[r]]++
			}
		}
		for _, workers := range []int{1, 2} {
			got := poisoned(n)
			c.Predict(x, fuzzFeatures, got, workers)
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: Predict %v != PredictRow %v", workers, got, want)
			}
			gotSel := poisoned(len(wantSel))
			c.PredictSel(x, fuzzFeatures, sel, gotSel, workers)
			if !slices.Equal(gotSel, wantSel) {
				t.Fatalf("workers=%d: PredictSel %v != PredictRow over the selection %v", workers, gotSel, wantSel)
			}
			counts := make([]int64, classes)
			c.PredictAggregate(x, fuzzFeatures, n, sel, counts, workers)
			if !slices.Equal(counts, wantCounts) {
				t.Fatalf("workers=%d: PredictAggregate %v != tally %v", workers, counts, wantCounts)
			}
		}
	})
}
