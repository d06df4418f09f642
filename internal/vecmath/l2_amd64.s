#include "textflag.h"

// Y0 holds the four float64 lanes (s0, s1, s2, s3) of squaredL2BoundedGo.
//
// STEP adds the four dimensions at byte offset off to them: widen, subtract,
// square and add are four separately rounded float64 operations — the
// scalar code's d := float64(a) - float64(b); s += d * d, with no fused
// multiply-add.
#define STEP(off) \
	VCVTPS2PD off(SI), Y2 \
	VCVTPS2PD off(DI), Y3 \
	VSUBPD    Y3, Y2, Y2  \
	VMULPD    Y2, Y2, Y2  \
	VADDPD    Y2, Y0, Y0

// REDUCE leaves ((s0+s1)+s2)+s3 in X6 from X0 = (s0, s1), X1 = (s2, s3).
#define REDUCE \
	VPERMILPD $1, X0, X7 \
	VADDSD    X7, X0, X6 \
	VADDSD    X1, X6, X6 \
	VPERMILPD $1, X1, X7 \
	VADDSD    X7, X6, X6

// func squaredL2BoundedAVX2(a, b []float32, bound float64) float64
//
// The caller guarantees len(a) == len(b); only a's length is read.
TEXT ·squaredL2BoundedAVX2(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VMOVSD bound+48(FP), X8
	VXORPD Y0, Y0, Y0

block16:
	CMPQ CX, $16
	JLT  tail4
	STEP(0)
	STEP(16)
	STEP(32)
	STEP(48)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, CX
	VEXTRACTF128 $1, Y0, X1
	REDUCE
	VUCOMISD X8, X6 // flags of X6 ? bound; a NaN on either side is "not above"
	JHI  done       // strict >: a partial sum equal to bound runs on
	JMP  block16

tail4:
	CMPQ CX, $4
	JLT  tail
	STEP(0)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  tail4

tail:
	VEXTRACTF128 $1, Y0, X1

tail1:
	TESTQ CX, CX
	JEQ   reduce
	VCVTSS2SD (SI), X2, X2
	VCVTSS2SD (DI), X3, X3
	VSUBSD X3, X2, X2
	VMULSD X2, X2, X2
	VADDSD X2, X0, X0 // the last len mod 4 dimensions all land in s0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail1

reduce:
	REDUCE

done:
	VZEROUPPER
	MOVSD X6, ret+56(FP)
	RET

// func nearestScanAVX2(x, blocked []float32, m *laneMin)
//
// Y0 holds the lanes' minimum distances and Y1 their groups (m.dist and
// m.group, loaded and stored back); Y4 is the current group number in
// every lane and Y5 the increment 1. A group's four sums run over the
// dimensions of x in order: x[j] broadcast and widened, minus the four
// widened centroid coordinates, squared, added. Two groups go per step
// (sums in Y2 and Y8, the second group R13 bytes on), sharing the
// broadcast of x[j]; their minimum updates still go in group order, and
// a last odd group goes alone. The caller guarantees len(x) ≥ 1 and
// len(blocked) a multiple of 4·len(x).
//
// UPDATE replaces each lane's minimum and group by sum and the current
// group where sum < minimum (VCMPPD LT_OQ: false when either is NaN),
// then moves to the next group.
#define UPDATE(sum) \
	VCMPPD    $0x11, Y0, sum, Y7 \
	VBLENDVPD Y7, sum, Y0, Y0    \
	VBLENDVPD Y7, Y4, Y1, Y1     \
	VPADDQ    Y5, Y4, Y4

TEXT ·nearestScanAVX2(SB), NOSPLIT, $0-56
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	MOVQ    blocked_base+24(FP), DI
	MOVQ    blocked_len+32(FP), BX
	LEAQ    (DI)(BX*4), BX // end of the codebook
	MOVQ    CX, R13
	SHLQ    $4, R13        // bytes per group: 4 centroids × len(x) × 4
	LEAQ    (R13)(R13*1), R14
	MOVQ    m+48(FP), R8
	VMOVUPD 0(R8), Y0
	VMOVDQU 32(R8), Y1
	VPXOR   Y4, Y4, Y4
	MOVQ    $1, AX
	VMOVQ   AX, X5
	VPBROADCASTQ X5, Y5

pair:
	MOVQ   BX, AX
	SUBQ   DI, AX
	CMPQ   AX, R14
	JLT    single
	MOVQ   SI, R10
	MOVQ   CX, R11
	VXORPD Y2, Y2, Y2
	VXORPD Y8, Y8, Y8

pairdim:
	VBROADCASTSS (R10), X3
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    (DI), Y6
	VCVTPS2PD    (DI)(R13*1), Y9
	VSUBPD       Y6, Y3, Y6
	VSUBPD       Y9, Y3, Y9
	VMULPD       Y6, Y6, Y6
	VMULPD       Y9, Y9, Y9
	VADDPD       Y6, Y2, Y2
	VADDPD       Y9, Y8, Y8
	ADDQ         $4, R10
	ADDQ         $16, DI
	DECQ         R11
	JNZ          pairdim

	ADDQ R13, DI // past the second group
	UPDATE(Y2)
	UPDATE(Y8)
	JMP  pair

single:
	CMPQ   DI, BX
	JAE    stored
	MOVQ   SI, R10
	MOVQ   CX, R11
	VXORPD Y2, Y2, Y2

dim:
	VBROADCASTSS (R10), X3
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    (DI), Y6
	VSUBPD       Y6, Y3, Y6
	VMULPD       Y6, Y6, Y6
	VADDPD       Y6, Y2, Y2
	ADDQ         $4, R10
	ADDQ         $16, DI
	DECQ         R11
	JNZ          dim

	UPDATE(Y2)

stored:
	VMOVUPD Y0, 0(R8)
	VMOVDQU Y1, 32(R8)
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// AVX2 is usable when the CPU reports it (leaf 7 EBX bit 5), reports AVX
// and OSXSAVE (leaf 1 ECX bits 28 and 27), and the OS saves the XMM and
// YMM state on a context switch (XCR0 bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JEQ  no
	MOVB $1, ret+0(FP)

no:
	RET
