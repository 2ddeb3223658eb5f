package linalg

// The amd64 vector bodies of the smoother's two per-λ kernels: the
// residual sums over 4-wide windows (ResidualSums) and the written-out
// rows of a bandwidth-3 solve (SolveInto). Each takes four adjacent
// columns of a block per AVX2 instruction, one column per lane, and
// each lane runs its column's Go body operation for operation, in
// order: accumulators start from +0, every product is rounded before
// it is added or subtracted (VMULPD then VADDPD or VSUBPD, never a
// fused multiply-add, as the compiler emits MULSD then ADDSD), and
// VDIVPD rounds each lane as DIVSD does. So every column's values are
// bitwise those of the Go body (DESIGN.md §6). They run when CPUID and
// XGETBV report AVX2 with the YMM state enabled, on the whole groups of
// four columns of a block of four or more; the Go bodies take the rest.

// avx2 reports whether the CPU runs AVX2 and the operating system
// saves the YMM registers.
var avx2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2 // XCR0: the OS saves the SSE and AVX state
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// vectorColumns is how many leading columns of a block of cols the
// vector bodies take: its whole groups of four, none without AVX2.
func vectorColumns(cols int) int {
	if !avx2 {
		return 0
	}
	return cols &^ 3
}

// residualSumsVec runs ResidualSums' vector body, for 4-wide windows,
// and returns how many leading columns it summed.
func residualSumsVec(s *SpanMatrix, x, ys, den, rss, wss []float64) int {
	c := vectorColumns(len(rss))
	if s.w != 4 || c == 0 {
		return 0
	}
	residualSums4AVX2(s.start, s.vals, x, ys, den, rss, wss)
	return c
}

// forward3Vec runs the written-out forward rows of a bandwidth-3 solve
// on the vector body and returns how many leading columns it solved.
func forward3Vec(l, b, x []float64, cols int) int {
	c := vectorColumns(cols)
	if c > 0 {
		forward3AVX2(l, b, x, cols)
	}
	return c
}

// back3Vec runs the written-out back rows of a bandwidth-3 solve on
// the vector body and returns how many leading columns it solved.
func back3Vec(l, x []float64, cols int) int {
	c := vectorColumns(cols)
	if c > 0 {
		back3AVX2(l, x, cols)
	}
	return c
}

// cpuid runs CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// residualSums4AVX2 is residualSums on the whole groups of four of the
// len(rss) columns, for 4-wide windows: start and vals are the span
// matrix's, and the shapes are those ResidualSums checks.
//
//go:noescape
func residualSums4AVX2(start []int, vals, x, ys, den, rss, wss []float64)

// forward3AVX2 is forward3 on the whole groups of four of the cols
// columns: rows 3 through n−1 of the forward sweep, n = len(l)/4.
//
//go:noescape
func forward3AVX2(l, b, x []float64, cols int)

// back3AVX2 is back3 on the whole groups of four of the cols columns:
// rows n−4 down to 0 of the back sweep, n = len(l)/4.
//
//go:noescape
func back3AVX2(l, x []float64, cols int)
