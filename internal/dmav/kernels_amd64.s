//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the kernel table (kernels.go). A YMM register holds two
// complex128 values, an XMM register one. A weight w is broadcast as wr
// (its real part in every lane) and wi (its imaginary part); vs is v with
// each value's parts swapped (VPERMILPD $5). CMUL sets out = w·v as
// (wr·v.re − wi·v.im, wr·v.im + wi·v.re): the products, subtraction and
// addition of Go's complex128 multiply, with no FMA. tmp is clobbered.
#define CMUL(wr, wi, v, vs, tmp, out) \
	VMULPD wr, v, out; \
	VMULPD wi, vs, tmp; \
	VADDSUBPD tmp, out, out

// PAIR sets (R), (S) = a00·p + a01·q, a10·p + a11·q for the two values p
// at R and q at S, with the weights broadcast in Y0–Y7.
#define PAIR(R, S) \
	VMOVUPD (R), Y8; \
	VMOVUPD (S), Y9; \
	VPERMILPD $5, Y8, Y10; \
	VPERMILPD $5, Y9, Y11; \
	CMUL(Y0, Y1, Y8, Y10, Y14, Y12); \
	CMUL(Y2, Y3, Y9, Y11, Y15, Y14); \
	VADDPD Y14, Y12, Y12; \
	CMUL(Y4, Y5, Y8, Y10, Y14, Y13); \
	CMUL(Y6, Y7, Y9, Y11, Y15, Y14); \
	VADDPD Y14, Y13, Y13; \
	VMOVUPD Y12, (R); \
	VMOVUPD Y13, (S)

// PAIRX is PAIR on one value each, with the weights in X0–X7.
#define PAIRX(R, S) \
	VMOVUPD (R), X8; \
	VMOVUPD (S), X9; \
	VPERMILPD $5, X8, X10; \
	VPERMILPD $5, X9, X11; \
	CMUL(X0, X1, X8, X10, X14, X12); \
	CMUL(X2, X3, X9, X11, X15, X14); \
	VADDPD X14, X12, X12; \
	CMUL(X4, X5, X8, X10, X14, X13); \
	CMUL(X6, X7, X9, X11, X15, X14); \
	VADDPD X14, X13, X13; \
	VMOVUPD X12, (R); \
	VMOVUPD X13, (S)

// func pairAVX2(v0, v1 []complex128, nb, sb, na int, w *[4]complex128)
TEXT ·pairAVX2(SB), NOSPLIT, $0-80
	MOVQ v0_base+0(FP), SI
	MOVQ v1_base+24(FP), DI
	MOVQ nb+48(FP), BX
	MOVQ sb+56(FP), R8
	MOVQ na+64(FP), R9
	MOVQ w+72(FP), AX
	SHLQ $4, R8
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	TESTQ BX, BX
	JZ done

run:
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R9, CX
	CMPQ CX, $2
	JB tail

loop:
	PAIR(R10, R11)
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $2, CX
	CMPQ CX, $2
	JAE loop

tail:
	TESTQ CX, CX
	JZ next
	PAIRX(R10, R11)

next:
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ BX
	JNZ run

done:
	VZEROUPPER
	RET

// func pairAdjAVX2(v []complex128, w *[4]complex128)
//
// One YMM holds a pair (p, q). Broadcast to (p, p) and (q, q), one
// complex multiply per lane against (a00, a10) and (a01, a11) gives
// (a00·p, a10·p) + (a01·q, a11·q).
TEXT ·pairAdjAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ w+24(FP), AX
	SHRQ $1, CX
	VMOVDDUP 0(AX), X0
	VMOVDDUP 32(AX), X8
	VINSERTF128 $1, X8, Y0, Y0 // a00.re, a00.re, a10.re, a10.re
	VMOVDDUP 8(AX), X1
	VMOVDDUP 40(AX), X8
	VINSERTF128 $1, X8, Y1, Y1 // a00.im, …, a10.im
	VMOVDDUP 16(AX), X2
	VMOVDDUP 48(AX), X8
	VINSERTF128 $1, X8, Y2, Y2 // a01.re, …, a11.re
	VMOVDDUP 24(AX), X3
	VMOVDDUP 56(AX), X8
	VINSERTF128 $1, X8, Y3, Y3 // a01.im, …, a11.im
	TESTQ CX, CX
	JZ done

loop:
	VBROADCASTF128 (SI), Y8
	VBROADCASTF128 16(SI), Y9
	VPERMILPD $5, Y8, Y10
	VPERMILPD $5, Y9, Y11
	CMUL(Y0, Y1, Y8, Y10, Y13, Y12)
	CMUL(Y2, Y3, Y9, Y11, Y14, Y13)
	VADDPD Y13, Y12, Y12
	VMOVUPD Y12, (SI)
	ADDQ $32, SI
	DECQ CX
	JNZ loop

done:
	VZEROUPPER
	RET

// func swapPhaseAVX2(v0, v1 []complex128, nb, sb, na int, w0, w1 complex128)
TEXT ·swapPhaseAVX2(SB), NOSPLIT, $0-104
	MOVQ v0_base+0(FP), SI
	MOVQ v1_base+24(FP), DI
	MOVQ nb+48(FP), BX
	MOVQ sb+56(FP), R8
	MOVQ na+64(FP), R9
	SHLQ $4, R8
	VBROADCASTSD w0_real+72(FP), Y0
	VBROADCASTSD w0_imag+80(FP), Y1
	VBROADCASTSD w1_real+88(FP), Y2
	VBROADCASTSD w1_imag+96(FP), Y3
	TESTQ BX, BX
	JZ done

run:
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R9, CX
	CMPQ CX, $2
	JB tail

loop:
	VMOVUPD (R10), Y8
	VMOVUPD (R11), Y9
	VPERMILPD $5, Y8, Y10
	VPERMILPD $5, Y9, Y11
	CMUL(Y0, Y1, Y9, Y11, Y13, Y12)
	CMUL(Y2, Y3, Y8, Y10, Y14, Y13)
	VMOVUPD Y12, (R10)
	VMOVUPD Y13, (R11)
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $2, CX
	CMPQ CX, $2
	JAE loop

tail:
	TESTQ CX, CX
	JZ next
	VMOVUPD (R10), X8
	VMOVUPD (R11), X9
	VPERMILPD $5, X8, X10
	VPERMILPD $5, X9, X11
	CMUL(X0, X1, X9, X11, X13, X12)
	CMUL(X2, X3, X8, X10, X14, X13)
	VMOVUPD X12, (R10)
	VMOVUPD X13, (R11)

next:
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ BX
	JNZ run

done:
	VZEROUPPER
	RET

// func scaleAVX2(dst, src []complex128, nb, sb, na int, w complex128)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ nb+48(FP), BX
	MOVQ sb+56(FP), R8
	MOVQ na+64(FP), R9
	SHLQ $4, R8
	VBROADCASTSD w_real+72(FP), Y0
	VBROADCASTSD w_imag+80(FP), Y1
	TESTQ BX, BX
	JZ done

run:
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ R9, CX
	CMPQ CX, $4
	JB pair

loop:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VPERMILPD $5, Y8, Y10
	VPERMILPD $5, Y9, Y11
	CMUL(Y0, Y1, Y8, Y10, Y12, Y13)
	CMUL(Y0, Y1, Y9, Y11, Y14, Y15)
	VMOVUPD Y13, (R10)
	VMOVUPD Y15, 32(R10)
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $4, CX
	CMPQ CX, $4
	JAE loop

pair:
	CMPQ CX, $2
	JB tail
	VMOVUPD (R11), Y8
	VPERMILPD $5, Y8, Y10
	CMUL(Y0, Y1, Y8, Y10, Y12, Y13)
	VMOVUPD Y13, (R10)
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $2, CX

tail:
	TESTQ CX, CX
	JZ next
	VMOVUPD (R11), X8
	VPERMILPD $5, X8, X10
	CMUL(X0, X1, X8, X10, X12, X13)
	VMOVUPD X13, (R10)

next:
	ADDQ R8, DI
	ADDQ R8, SI
	DECQ BX
	JNZ run

done:
	VZEROUPPER
	RET

// func axpyAVX2(dst, src []complex128, w complex128)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD w_real+48(FP), Y0
	VBROADCASTSD w_imag+56(FP), Y1
	CMPQ CX, $2
	JB tail

loop:
	VMOVUPD (SI), Y8
	VPERMILPD $5, Y8, Y10
	CMUL(Y0, Y1, Y8, Y10, Y12, Y13)
	VADDPD (DI), Y13, Y13
	VMOVUPD Y13, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $2, CX
	CMPQ CX, $2
	JAE loop

tail:
	TESTQ CX, CX
	JZ done
	VMOVUPD (SI), X8
	VPERMILPD $5, X8, X10
	CMUL(X0, X1, X8, X10, X12, X13)
	VADDPD (DI), X13, X13
	VMOVUPD X13, (DI)

done:
	VZEROUPPER
	RET

// func addAVX2(dst, src []complex128)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	CMPQ CX, $2
	JB tail

loop:
	VMOVUPD (SI), Y8
	VADDPD (DI), Y8, Y8
	VMOVUPD Y8, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $2, CX
	CMPQ CX, $2
	JAE loop

tail:
	TESTQ CX, CX
	JZ done
	VMOVUPD (SI), X8
	VADDPD (DI), X8, X8
	VMOVUPD X8, (DI)

done:
	VZEROUPPER
	RET

// func rowAVX2(dst, x, y []complex128, a, b complex128, set bool)
//
// Accumulating, dst + (a·x + b·y): the sum of the products first, as Go
// evaluates dst[i] += a*x[i] + b*y[i].
TEXT ·rowAVX2(SB), NOSPLIT, $0-105
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	VBROADCASTSD a_real+72(FP), Y0
	VBROADCASTSD a_imag+80(FP), Y1
	VBROADCASTSD b_real+88(FP), Y2
	VBROADCASTSD b_imag+96(FP), Y3
	MOVBLZX set+104(FP), AX
	CMPQ CX, $2
	JB tail

loop:
	VMOVUPD (SI), Y8
	VMOVUPD (DX), Y9
	VPERMILPD $5, Y8, Y10
	VPERMILPD $5, Y9, Y11
	CMUL(Y0, Y1, Y8, Y10, Y13, Y12)
	CMUL(Y2, Y3, Y9, Y11, Y14, Y13)
	VADDPD Y13, Y12, Y12
	TESTQ AX, AX
	JNZ store
	VADDPD (DI), Y12, Y12

store:
	VMOVUPD Y12, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $2, CX
	CMPQ CX, $2
	JAE loop

tail:
	TESTQ CX, CX
	JZ done
	VMOVUPD (SI), X8
	VMOVUPD (DX), X9
	VPERMILPD $5, X8, X10
	VPERMILPD $5, X9, X11
	CMUL(X0, X1, X8, X10, X13, X12)
	CMUL(X2, X3, X9, X11, X14, X13)
	VADDPD X13, X12, X12
	TESTQ AX, AX
	JNZ storex
	VADDPD (DI), X12, X12

storex:
	VMOVUPD X12, (DI)

done:
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

// func xgetbv() (a uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, a+0(FP)
	RET
