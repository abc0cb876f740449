package kernel

// walkAVX512 is walkTree's body in AVX-512 (walk_amd64.s): the block's first
// n rows walk as four interleaved 16-lane chunks, node indices in a ZMM
// register and live lanes in an opmask, each level a masked gather of the
// node's fields and of the row's feature and one float32 `<` (LT_OQ, false
// on NaN); a lane retires once its node is its own child, a leaf. It gathers
// without bounds checks: walkTree calls it only where every index fits int32.
//
//go:noescape
func walkAVX512(nodes []node, x []float32, offs *[rowBlockSize]int, n int, root, steps int32, leaf *[rowBlockSize]int32)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (xcr0 uint32)

// avx512 reports whether the CPU has AVX-512F and DQ and the OS saves their
// state: XCR0's SSE, AVX, opmask and both upper ZMM bits (0xe6).
func avx512() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	const osxsave, f, dq = 1 << 27, 1 << 16, 1 << 17
	return c1&osxsave != 0 && b7&(f|dq) == f|dq && xgetbv()&0xe6 == 0xe6
}
