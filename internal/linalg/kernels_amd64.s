#include "textflag.h"

// The vector bodies of kernels_amd64.go. Each lane is one column of a
// row-major block, and runs that column's Go body: every product is
// rounded (VMULPD) before it is added or subtracted, in the Go body's
// order, and accumulators start from +0.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func residualSums4AVX2(start []int, vals, x, ys, den, rss, wss []float64)
//
// For each group of four columns, row by row: ŷ = +0 + v0·x[s] +
// v1·x[s+1] + v2·x[s+2] + v3·x[s+3], with s = start[j] and v row j's
// window, then r = y − ŷ, Σr² += r·r and Σ(r/den)² += (r/den[j])², both
// sums from +0.
TEXT ·residualSums4AVX2(SB), NOSPLIT, $0-168
	MOVQ start_len+8(FP), R8    // m
	MOVQ rss_len+128(FP), DX    // cols
	MOVQ DX, R13
	SHRQ $2, R13                // groups of four
	TESTQ R13, R13
	JZ   done
	SHLQ $3, DX                 // one row of x or ys, in bytes
	XORQ R11, R11               // the group's first column, in bytes

group:
	MOVQ start_base+0(FP), SI
	MOVQ vals_base+24(FP), DI
	MOVQ den_base+96(FP), AX
	MOVQ x_base+48(FP), R9
	ADDQ R11, R9                // x at the group's columns
	MOVQ ys_base+72(FP), R10
	ADDQ R11, R10               // row 0 of ys at the group's columns
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0           // Σ r²
	VXORPD Y1, Y1, Y1           // Σ (r/den)²
	TESTQ CX, CX
	JZ   store

row:
	MOVQ (SI), BX
	IMULQ DX, BX
	ADDQ R9, BX                 // row start[j] of x
	VXORPD Y2, Y2, Y2           // ŷ
	VBROADCASTSD (DI), Y3
	VMULPD (BX), Y3, Y3
	VADDPD Y3, Y2, Y2
	ADDQ DX, BX
	VBROADCASTSD 8(DI), Y4
	VMULPD (BX), Y4, Y4
	VADDPD Y4, Y2, Y2
	ADDQ DX, BX
	VBROADCASTSD 16(DI), Y5
	VMULPD (BX), Y5, Y5
	VADDPD Y5, Y2, Y2
	ADDQ DX, BX
	VBROADCASTSD 24(DI), Y6
	VMULPD (BX), Y6, Y6
	VADDPD Y6, Y2, Y2
	VMOVUPD (R10), Y7
	VSUBPD Y2, Y7, Y7           // r = y − ŷ
	VMULPD Y7, Y7, Y8
	VADDPD Y8, Y0, Y0
	VBROADCASTSD (AX), Y9
	VDIVPD Y9, Y7, Y7           // r/den
	VMULPD Y7, Y7, Y7
	VADDPD Y7, Y1, Y1
	ADDQ $8, SI
	ADDQ $32, DI
	ADDQ $8, AX
	ADDQ DX, R10
	DECQ CX
	JNZ  row

store:
	MOVQ rss_base+120(FP), BX
	VMOVUPD Y0, (BX)(R11*1)
	MOVQ wss_base+144(FP), BX
	VMOVUPD Y1, (BX)(R11*1)
	ADDQ $32, R11
	DECQ R13
	JNZ  group

done:
	VZEROUPPER
	RET

// func forward3AVX2(l, b, x []float64, cols int)
//
// For rows i = 3 … n−1, each group of four columns: s = b_i −
// L[i][i−3]·x_{i−3} − L[i][i−2]·x_{i−2} − L[i][i−1]·x_{i−1}, in that
// order, and x_i = s/L[i][i].
TEXT ·forward3AVX2(SB), NOSPLIT, $0-80
	MOVQ l_len+8(FP), R8
	SHRQ $2, R8                 // n
	SUBQ $3, R8                 // rows 3 … n−1
	JLE  done
	MOVQ cols+72(FP), DX
	MOVQ DX, R13
	SHRQ $2, R13                // groups of four
	TESTQ R13, R13
	JZ   done
	SHLQ $3, DX                 // one row of b or x, in bytes
	MOVQ l_base+0(FP), SI
	ADDQ $96, SI                // row 3 of l
	LEAQ (DX)(DX*2), AX
	MOVQ b_base+24(FP), DI
	ADDQ AX, DI                 // row 3 of b
	MOVQ x_base+48(FP), BX      // row i−3 of x

row:
	VBROADCASTSD (SI), Y0       // L[i][i−3]
	VBROADCASTSD 8(SI), Y1      // L[i][i−2]
	VBROADCASTSD 16(SI), Y2     // L[i][i−1]
	VBROADCASTSD 24(SI), Y3     // L[i][i]
	LEAQ (BX)(DX*1), R9         // row i−2
	LEAQ (R9)(DX*1), R10        // row i−1
	LEAQ (R10)(DX*1), R11       // row i
	XORQ CX, CX
	MOVQ R13, R12

fcol:
	VMOVUPD (DI)(CX*1), Y4
	VMULPD (BX)(CX*1), Y0, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD (R9)(CX*1), Y1, Y6
	VSUBPD Y6, Y4, Y4
	VMULPD (R10)(CX*1), Y2, Y7
	VSUBPD Y7, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VMOVUPD Y4, (R11)(CX*1)
	ADDQ $32, CX
	DECQ R12
	JNZ  fcol
	ADDQ $32, SI
	ADDQ DX, DI
	ADDQ DX, BX
	DECQ R8
	JNZ  row

done:
	VZEROUPPER
	RET

// func back3AVX2(l, x []float64, cols int)
//
// For rows i = n−4 … 0, each group of four columns: s = x_i −
// L[i+1][i]·x_{i+1} − L[i+2][i]·x_{i+2} − L[i+3][i]·x_{i+3}, in that
// order, and x_i = s/L[i][i].
TEXT ·back3AVX2(SB), NOSPLIT, $0-56
	MOVQ l_len+8(FP), R8
	SHRQ $2, R8                 // n
	SUBQ $3, R8                 // rows n−4 … 0
	JLE  done
	MOVQ cols+48(FP), DX
	MOVQ DX, R13
	SHRQ $2, R13                // groups of four
	TESTQ R13, R13
	JZ   done
	SHLQ $3, DX                 // one row of x, in bytes
	LEAQ -1(R8), AX             // n−4
	MOVQ AX, SI
	SHLQ $5, SI
	ADDQ l_base+0(FP), SI       // row n−4 of l
	IMULQ DX, AX
	MOVQ x_base+24(FP), BX
	ADDQ AX, BX                 // row n−4 of x

row:
	VBROADCASTSD 48(SI), Y0     // L[i+1][i]
	VBROADCASTSD 72(SI), Y1     // L[i+2][i]
	VBROADCASTSD 96(SI), Y2     // L[i+3][i]
	VBROADCASTSD 24(SI), Y3     // L[i][i]
	LEAQ (BX)(DX*1), R9         // row i+1
	LEAQ (R9)(DX*1), R10        // row i+2
	LEAQ (R10)(DX*1), R11       // row i+3
	XORQ CX, CX
	MOVQ R13, R12

bcol:
	VMOVUPD (BX)(CX*1), Y4
	VMULPD (R9)(CX*1), Y0, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD (R10)(CX*1), Y1, Y6
	VSUBPD Y6, Y4, Y4
	VMULPD (R11)(CX*1), Y2, Y7
	VSUBPD Y7, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VMOVUPD Y4, (BX)(CX*1)
	ADDQ $32, CX
	DECQ R12
	JNZ  bcol
	SUBQ $32, SI
	SUBQ DX, BX
	DECQ R8
	JNZ  row

done:
	VZEROUPPER
	RET
