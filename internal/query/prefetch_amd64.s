#include "textflag.h"

// func prefetch(p *float32, n int)
TEXT ·prefetch(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX

line:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	SUBQ $16, CX
	JGT  line
	RET
