#include "textflag.h"

// STEP moves the live lanes of one 16-lane chunk down one level; live is the
// chunk's lane mask, idx its node indices, byt the same as byte offsets into
// nodes, off its rows' offsets into x, and f, t, xv, c its own scratch, so
// the four chunks' gathers overlap. Every write is masked by live: a retired
// lane keeps its leaf in idx, and a stale lane elsewhere is never read.
//
//	f, t, c = feature, threshold, child of the node    (dword gathers at 0/4/8)
//	live   &= c != idx: a leaf is its own child, retire (VPCMPD)
//	xv      = x[off+f]                                 (VGATHERDPS)
//	idx     = c, +1 where xv < t; NaN goes right       (VCMPPS LT_OQ)
//
// A lane is retired by the child gather of the level after it reached its
// leaf, not by a gather of the leaf's class: that would be a third dependent
// gather on every level's path.
#define STEP(live, idx, byt, off, f, t, xv, c) \
	KMOVW        live, K5;                   \
	VPGATHERDD   (SI)(byt*1), K5, f;         \
	KMOVW        live, K6;                   \
	VPGATHERDD   4(SI)(byt*1), K6, t;        \
	KMOVW        live, K7;                   \
	VPGATHERDD   8(SI)(byt*1), K7, c;        \
	VPCMPD       $4, idx, c, live, live;     \
	VPADDD       off, f, f;                  \
	KMOVW        live, K5;                   \
	VGATHERDPS   (DI)(f*4), K5, xv;          \
	VCMPPS       $0x11, t, xv, live, K6;     \
	VMOVDQA32    c, live, idx;               \
	VPADDD       Z31, idx, K6, idx;          \
	VPSLLD       $4, idx, byt

// START puts the chunk whose 16 int64 offsets start at byte o of offs at the
// root: idx and byt from Z0 and Z4, off the offsets narrowed to int32.
#define START(o, idx, byt, off) \
	VMOVDQA32    Z0, idx;                    \
	VMOVDQA32    Z4, byt;                    \
	VMOVDQU64    o(R8), off;                 \
	VPMOVQD      off, Y30;                   \
	VMOVDQU64    o+64(R8), off;              \
	VPMOVQD      off, Y14;                   \
	VINSERTI64X4 $1, Y14, Z30, off

// func walkAVX512(nodes []node, x []float32, offs *[rowBlockSize]int, n int, root, steps int32, leaf *[rowBlockSize]int32)
TEXT ·walkAVX512(SB), NOSPLIT, $0-80
	MOVQ nodes_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ offs+48(FP), R8
	MOVQ n+56(FP), CX
	MOVL root+64(FP), AX
	MOVL steps+68(FP), BX
	MOVQ leaf+72(FP), R9

	// Lane r of the block is bit r of DX: the first n are live. K1-K4 are
	// the four chunks' 16 bits each.
	MOVQ $-1, DX
	CMPQ CX, $64
	JAE  masks
	MOVQ $1, DX
	SHLQ CX, DX
	DECQ DX

masks:
	KMOVW DX, K1
	SHRQ  $16, DX
	KMOVW DX, K2
	SHRQ  $16, DX
	KMOVW DX, K3
	SHRQ  $16, DX
	KMOVW DX, K4

	VPBROADCASTD AX, Z0
	VPSLLD       $4, Z0, Z4
	MOVL         $1, DX
	VPBROADCASTD DX, Z31
	START(384, Z23, Z27, Z26)
	START(256, Z16, Z20, Z19)
	START(128, Z7, Z11, Z10)
	START(0, Z0, Z4, Z8)

	TESTL BX, BX
	JLE   done

loop:
	KORTESTW K1, K1
	JZ       chunk1
	STEP(K1, Z0, Z4, Z8, Z1, Z2, Z3, Z5)

chunk1:
	KORTESTW K2, K2
	JZ       chunk2
	STEP(K2, Z7, Z11, Z10, Z6, Z9, Z12, Z13)

chunk2:
	KORTESTW K3, K3
	JZ       chunk3
	STEP(K3, Z16, Z20, Z19, Z17, Z18, Z21, Z22)

chunk3:
	KORTESTW K4, K4
	JZ       next
	STEP(K4, Z23, Z27, Z26, Z24, Z25, Z28, Z29)

next:
	// Every lane on a leaf ends the walk, as in lockstep.
	KORW     K1, K2, K5
	KORW     K3, K4, K6
	KORTESTW K5, K6
	JZ       done
	DECL     BX
	JNZ      loop

done:
	VMOVDQU32 Z0, (R9)
	VMOVDQU32 Z7, 64(R9)
	VMOVDQU32 Z16, 128(R9)
	VMOVDQU32 Z23, 192(R9)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, xcr0+0(FP)
	RET
