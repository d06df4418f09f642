#include "textflag.h"

// func adcRowAVX2(row, q, blocked []float32)
//
// One 16-byte load of the blocked codebook holds dimension j of a group
// of four centroids. VINSERTF128 puts the next group's load in the upper
// half, so one YMM register carries eight centroids, and a step takes
// four groups (sixteen centroids) in Y0 and Y1, stored with two 32-byte
// stores. What is left goes a group at a time in one XMM register, and a
// last group of fewer than four centroids stores only its live lanes.
// Every lane is one centroid's own sum: VSUBPS, VMULPS and VADDPS round
// separately, with no fused multiply-add, in adcRowGo's order.
//
// SI = q, R11 = len(q), DI = the current group, DX = the current output
// entry, CX = entries left, R13 = bytes per group (16·len(q)), R14 =
// 3·R13. The pairwise arm (len(q) = 4, so a group is 64 bytes) holds
// q[0..3] broadcast in Y12–Y15.
//
// The caller guarantees len(q) ≥ 1 and len(blocked) =
// 4·len(q)·⌈len(row)/4⌉ floats.

// LOAD2(off, lo, reg) loads the 16 bytes at DI+off into the low half of
// Y reg (lo is its X name) and those at DI+off+64, the same dimension of
// the next width-4 group, into its high half.
#define LOAD2(off, lo, reg) \
	VMOVUPS     off(DI), lo                 \
	VINSERTF128 $1, off+64(DI), reg, reg

// PAIR(base, …) leaves in out the width-4 sums of the eight centroids of
// the groups at DI+base and DI+base+64, (t0 + t1) + (t2 + t3) with
// tj = (q[j] − c[j])²; t and u are scratch.
#define PAIR(base, xout, out, xt, t, xu, u) \
	LOAD2(base, xout, out)    \
	VSUBPS  out, Y12, out     \
	VMULPS  out, out, out     \
	LOAD2(base+16, xt, t)     \
	VSUBPS  t, Y13, t         \
	VMULPS  t, t, t           \
	VADDPS  t, out, out       \
	LOAD2(base+32, xt, t)     \
	VSUBPS  t, Y14, t         \
	VMULPS  t, t, t           \
	LOAD2(base+48, xu, u)     \
	VSUBPS  u, Y15, u         \
	VMULPS  u, u, u           \
	VADDPS  u, t, t           \
	VADDPS  t, out, out

TEXT ·adcRowAVX2(SB), NOSPLIT, $0-72
	MOVQ row_base+0(FP), DX
	MOVQ row_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), R11
	MOVQ blocked_base+48(FP), DI
	MOVQ R11, R13
	SHLQ $4, R13
	LEAQ (R13)(R13*2), R14
	CMPQ R11, $4
	JEQ  pairwise

seq4:
	CMPQ   CX, $16
	JLT    seq1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R10
	MOVQ   R11, R12
	MOVQ   DI, R8

seq4dim:
	VBROADCASTSS (R10), Y3
	VMOVUPS      (R8), X4
	VINSERTF128  $1, (R8)(R13*1), Y4, Y4
	VMOVUPS      (R8)(R13*2), X5
	VINSERTF128  $1, (R8)(R14*1), Y5, Y5
	VSUBPS       Y4, Y3, Y4
	VSUBPS       Y5, Y3, Y5
	VMULPS       Y4, Y4, Y4
	VMULPS       Y5, Y5, Y5
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	ADDQ         $4, R10
	ADDQ         $16, R8
	DECQ         R12
	JNZ          seq4dim

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	LEAQ    (DI)(R13*4), DI
	ADDQ    $64, DX
	SUBQ    $16, CX
	JMP     seq4

seq1:
	TESTQ  CX, CX
	JEQ    done
	VXORPS X0, X0, X0
	MOVQ   SI, R10
	MOVQ   R11, R12

seq1dim:
	VBROADCASTSS (R10), X3
	VSUBPS       (DI), X3, X4
	VMULPS       X4, X4, X4
	VADDPS       X4, X0, X0
	ADDQ         $4, R10
	ADDQ         $16, DI
	DECQ         R12
	JNZ          seq1dim

	CMPQ    CX, $4
	JLT     partial
	VMOVUPS X0, (DX)
	ADDQ    $16, DX
	SUBQ    $4, CX
	JMP     seq1

pairwise:
	VBROADCASTSS 0(SI), Y12
	VBROADCASTSS 4(SI), Y13
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15

pair4:
	CMPQ    CX, $16
	JLT     pair1
	PAIR(0, X0, Y0, X4, Y4, X5, Y5)
	PAIR(128, X1, Y1, X6, Y6, X7, Y7)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    $256, DI
	ADDQ    $64, DX
	SUBQ    $16, CX
	JMP     pair4

pair1:
	TESTQ   CX, CX
	JEQ     done
	VSUBPS  0(DI), X12, X0
	VMULPS  X0, X0, X0
	VSUBPS  16(DI), X13, X4
	VMULPS  X4, X4, X4
	VADDPS  X4, X0, X0
	VSUBPS  32(DI), X14, X4
	VMULPS  X4, X4, X4
	VSUBPS  48(DI), X15, X5
	VMULPS  X5, X5, X5
	VADDPS  X5, X4, X4
	VADDPS  X4, X0, X0
	ADDQ    $64, DI
	CMPQ    CX, $4
	JLT     partial
	VMOVUPS X0, (DX)
	ADDQ    $16, DX
	SUBQ    $4, CX
	JMP     pair1

// partial stores the first CX (1, 2 or 3) lanes of X0 and nothing more.
partial:
	CMPQ       CX, $2
	JLT        one
	VMOVSD     X0, (DX)
	JEQ        done
	VEXTRACTPS $2, X0, 8(DX)
	JMP        done

one:
	VMOVSS X0, (DX)

done:
	VZEROUPPER
	RET
