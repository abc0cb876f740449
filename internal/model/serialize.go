// Package model implements the serialized model format and the dense node
// layout used by the accelerator backends.
//
// The paper stores models "in serialized binary form, in either an
// off-the-shelf or custom format" inside database tables (§II) and
// deserializes them during model pre-processing. RFX is this project's
// custom binary format — the stand-in for the ONNX blobs in the paper. It is
// self-describing, versioned, CRC-protected, and round-trips a forest
// exactly.
//
// The dense layout (dense.go) is the Fig. 4b four-field node memory layout
// the FPGA's tree memories hold.
package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"accelscore/internal/forest"
	"accelscore/internal/storage/pagefmt"
)

// Magic identifies RFX blobs.
var Magic = [4]byte{'R', 'F', 'X', '1'}

// Version is the current format version.
const Version uint16 = 1

const (
	flagLeaf byte = 1 << 0
)

// Marshal serializes a forest to the RFX binary format.
func Marshal(f *forest.Forest) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("model: refusing to marshal invalid forest: %w", err)
	}
	nodes := 0
	for _, t := range f.Trees {
		nodes += t.NodeCount()
	}
	buf := append(make([]byte, 0, 64+nodes*ApproxNodeBytes), Magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, byte(f.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.BaseScore))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.NumFeatures))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.NumClasses))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Trees)))
	buf = appendStrings(buf, f.FeatureNames)
	buf = appendStrings(buf, f.ClassNames)
	for _, t := range f.Trees {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.NodeCount()))
		buf = appendNode(buf, t.Root)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// appendStrings writes a u32 count, then each string as a u16 length and
// its bytes.
func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ss)))
	for _, s := range ss {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func appendNode(buf []byte, n *forest.Node) []byte {
	var flags byte
	if n.IsLeaf() {
		flags |= flagLeaf
	}
	buf = append(buf, flags)
	if !n.IsLeaf() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Feature))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(n.Threshold))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Class))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Value))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Samples))
	if !n.IsLeaf() {
		buf = appendNode(buf, n.Left)
		buf = appendNode(buf, n.Right)
	}
	return buf
}

// Unmarshal parses an RFX blob back into a forest, verifying the checksum
// and every structural bound.
func Unmarshal(blob []byte) (*forest.Forest, error) {
	if len(blob) < len(Magic)+2+1+4+4+4+4 {
		return nil, fmt.Errorf("model: blob too short (%d bytes)", len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("model: checksum mismatch: stored %08x, computed %08x", got, want)
	}
	c := pagefmt.NewCellReader(body)
	f, err := readForest(c)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("model: %d trailing bytes", c.Remaining())
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("model: deserialized forest invalid: %w", err)
	}
	return f, nil
}

func readForest(c *pagefmt.CellReader) (*forest.Forest, error) {
	magic, err := c.Next(len(Magic))
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != Magic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	version, err := c.Uint16()
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	kind, err := c.Byte()
	if err != nil {
		return nil, err
	}
	f := &forest.Forest{Kind: forest.Kind(kind)}
	if f.Kind != forest.Classifier && f.Kind != forest.Regressor && f.Kind != forest.Boosted {
		return nil, fmt.Errorf("unknown kind %d", kind)
	}
	if f.BaseScore, err = c.Float64(); err != nil {
		return nil, err
	}
	var counts [3]uint32 // features, classes, trees
	for i := range counts {
		if counts[i], err = c.Uint32(); err != nil {
			return nil, err
		}
	}
	const maxSane = 1 << 24
	if counts[0] == 0 || counts[0] > maxSane || counts[1] > maxSane || counts[2] == 0 || counts[2] > maxSane {
		return nil, fmt.Errorf("implausible header: features=%d classes=%d trees=%d", counts[0], counts[1], counts[2])
	}
	f.NumFeatures, f.NumClasses = int(counts[0]), int(counts[1])
	if f.FeatureNames, err = readStrings(c); err != nil {
		return nil, err
	}
	if f.ClassNames, err = readStrings(c); err != nil {
		return nil, err
	}
	for t := range int(counts[2]) {
		count, err := c.Uint32()
		if err != nil {
			return nil, err
		}
		if count == 0 || count > maxSane {
			return nil, fmt.Errorf("tree %d has implausible node count %d", t, count)
		}
		budget := int(count)
		root, err := readNode(c, &budget)
		if err != nil {
			return nil, fmt.Errorf("tree %d: %w", t, err)
		}
		if budget != 0 {
			return nil, fmt.Errorf("tree %d: %d trailing node records", t, budget)
		}
		f.Trees = append(f.Trees, &forest.Tree{Root: root, NumFeatures: f.NumFeatures, NumClasses: f.NumClasses})
	}
	return f, nil
}

// readStrings reads appendStrings' encoding. A count the remaining bytes
// cannot hold, at 2 length bytes per string, is refused before the slice is
// sized from it.
func readStrings(c *pagefmt.CellReader) ([]string, error) {
	n, err := c.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(c.Remaining()/2) {
		return nil, fmt.Errorf("implausible string count %d in %d bytes", n, c.Remaining())
	}
	out := make([]string, n)
	for i := range out {
		l, err := c.Uint16()
		if err != nil {
			return nil, err
		}
		b, err := c.Next(int(l))
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

func readNode(c *pagefmt.CellReader, budget *int) (*forest.Node, error) {
	if *budget <= 0 {
		return nil, fmt.Errorf("node budget exhausted")
	}
	*budget--
	flags, err := c.Byte()
	if err != nil {
		return nil, err
	}
	n := &forest.Node{}
	leaf := flags&flagLeaf != 0
	if !leaf {
		feature, err := c.Uint32()
		if err != nil {
			return nil, err
		}
		n.Feature = int(feature)
		if n.Threshold, err = c.Float32(); err != nil {
			return nil, err
		}
	}
	class, err := c.Uint32()
	if err != nil {
		return nil, err
	}
	if n.Value, err = c.Float64(); err != nil {
		return nil, err
	}
	samples, err := c.Uint32()
	if err != nil {
		return nil, err
	}
	n.Class, n.Samples = int(class), int(samples)
	if !leaf {
		if n.Left, err = readNode(c, budget); err != nil {
			return nil, err
		}
		if n.Right, err = readNode(c, budget); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// ApproxNodeBytes is the approximate per-node footprint of the RFX encoding
// (flags + feature + threshold + class + value + samples, averaged over
// leaf and decision nodes); experiment harnesses use it to size hypothetical
// model blobs without training them.
const ApproxNodeBytes = 21
