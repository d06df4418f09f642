//go:build !amd64

package vecmath

func squaredL2Bounded(a, b []float32, bound float64) float64 {
	return squaredL2BoundedGo(a, b, bound)
}

func nearestScan(x, blocked []float32, m *laneMin) { nearestScanGo(x, blocked, m) }

func adcRow(row, q, blocked []float32) { adcRowGo(row, q, blocked) }

// Kernel names the implementation behind SquaredL2, SquaredL2Bounded,
// NearestCentroid and ADCRow in this process: off amd64, always the
// portable "go".
func Kernel() string { return "go" }
