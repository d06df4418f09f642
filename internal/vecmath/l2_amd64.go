package vecmath

// squaredL2BoundedAVX2 is squaredL2BoundedGo in assembly (l2_amd64.s):
// one 256-bit register is the four float64 lanes, VCVTPS2PD widens, and
// VSUBPD, VMULPD and VADDPD round separately, so every result has the
// reference's bits. Wider or fused forms are excluded for that reason:
// eight lanes or AVX-512 reassociate the sum, FMA skips a rounding.
// len(a) must equal len(b).
//
//go:noescape
func squaredL2BoundedAVX2(a, b []float32, bound float64) float64

func hasAVX2() bool

// useAVX2 is read once, at package initialization.
var useAVX2 = hasAVX2()

func squaredL2Bounded(a, b []float32, bound float64) float64 {
	if useAVX2 {
		return squaredL2BoundedAVX2(a, b, bound)
	}
	return squaredL2BoundedGo(a, b, bound)
}

// nearestScanAVX2 is nearestScanGo in assembly (l2_amd64.s): a group of
// four centroids has its four sums in one 256-bit register, each
// dimension of x is broadcast to all four lanes, and VSUBPD, VMULPD and
// VADDPD round separately as in squaredL2BoundedAVX2; VCMPPD (ordered
// less-than, false on NaN) and VBLENDVPD keep the lane minima, group by
// group in order. Same preconditions as nearestScanGo.
//
//go:noescape
func nearestScanAVX2(x, blocked []float32, m *laneMin)

func nearestScan(x, blocked []float32, m *laneMin) {
	if useAVX2 {
		nearestScanAVX2(x, blocked, m)
		return
	}
	nearestScanGo(x, blocked, m)
}

// adcRowAVX2 is adcRowGo in assembly (adcrow_amd64.s): dimension j of a
// group of four centroids is one 16-byte load, the query's coordinate is
// broadcast to every lane, and VSUBPS, VMULPS and VADDPS round
// separately in adcRowGo's order, eight centroids to a YMM register.
// Same preconditions as adcRowGo.
//
//go:noescape
func adcRowAVX2(row, q, blocked []float32)

func adcRow(row, q, blocked []float32) {
	if useAVX2 {
		adcRowAVX2(row, q, blocked)
		return
	}
	adcRowGo(row, q, blocked)
}

// Kernel names the implementation behind SquaredL2, SquaredL2Bounded,
// NearestCentroid and ADCRow in this process: "avx2", or "go" on a CPU
// or OS without AVX2.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}
