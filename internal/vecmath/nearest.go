package vecmath

import "math"

// The blocked codebook is the layout NearestCentroid reads: centroids in
// groups of four, each group stored dimension-major as [dim][4]float32,
// so one 16-byte load holds dimension j of four centroids — one float64
// lane each after widening. Centroid c, dimension j of a width-d
// codebook sits at ((c/4)·d + j)·4 + c%4. The last group is padded to
// four with NaN centroids: a NaN distance never compares less than
// anything, so a padding lane can never win.

// blockedLen returns the length of the blocked layout of k centroids of
// width d: k rounded up to a multiple of four, times d.
func blockedLen(k, d int) int { return (k + 3) / 4 * 4 * d }

// BlockCentroids writes the blocked layout of the k×d row-major centers
// into dst, reusing its capacity, and returns it.
func BlockCentroids(dst, centers []float32, k, d int) []float32 {
	if k < 0 || d < 0 || len(centers) != k*d {
		panic("vecmath: BlockCentroids shape mismatch")
	}
	n := blockedLen(k, d)
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	pad := float32(math.NaN())
	for c := 0; c < (k+3)/4*4; c++ {
		blk := dst[c/4*4*d:]
		for j := 0; j < d; j++ {
			v := pad
			if c < k {
				v = centers[c*d+j]
			}
			blk[4*j+c%4] = v
		}
	}
	return dst
}

// BlockedCentroid copies centroid c of a blocked codebook of width
// len(dst) into dst.
func BlockedCentroid(dst, blocked []float32, c int) {
	d := len(dst)
	blk := blocked[c/4*4*d : (c/4+1)*4*d]
	for j := range dst {
		dst[j] = blk[4*j+c%4]
	}
}

// NearestCentroid is ArgNearest over a blocked codebook of k centroids
// of width len(x) (BlockCentroids): the same index and the same distance
// bits, without a per-dimension branch. Every centroid's whole float64
// sum is computed in ArgNearest's order, four centroids at a time; each
// lane's minimum is replaced only on a strict <, and the lanes reduce by
// distance, then by index. DESIGN.md §8k says why that equals
// ArgNearest's early-abandoning scan, ties and non-finite inputs
// included.
//
// The bits are defined by nearestScanGo; on amd64 with AVX2 an assembly
// kernel performs the same operations (Kernel names which).
func NearestCentroid(x, blocked []float32, k int) (best int, bestDist float64) {
	if len(x) == 0 || k <= 0 || len(blocked) != blockedLen(k, len(x)) {
		panic("vecmath: NearestCentroid shape mismatch")
	}
	var m laneMin
	m.reset()
	nearestScan(x, blocked, &m)
	return m.best()
}

// laneMin is the per-lane state of a nearest-centroid scan: lane l's
// smallest distance so far and the group that holds it, so the centroid
// is 4·group[l] + l. The assembly kernel reads and writes it at byte
// offsets 0 (dist) and 32 (group).
type laneMin struct {
	dist  [4]float64
	group [4]int
}

func (m *laneMin) reset() {
	m.dist = [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	m.group = [4]int{}
}

// best reduces the four lanes: the smallest distance, ties to the lowest
// centroid index. A lane no centroid ever improved holds +Inf at its
// own lane number, so when nothing is finite the result is (0, +Inf).
func (m *laneMin) best() (int, float64) {
	best, bestDist := 4*m.group[0], m.dist[0]
	for l := 1; l < 4; l++ {
		c := 4*m.group[l] + l
		if m.dist[l] < bestDist || (m.dist[l] == bestDist && c < best) {
			best, bestDist = c, m.dist[l]
		}
	}
	return best, bestDist
}

// nearestScanGo is the kernel's definition, the fallback without AVX2
// and the oracle the assembly is tested against: for every group of the
// blocked codebook, four float64 sums over j ascending, each difference
// and square rounded separately (the float64(…) around the product
// forbids fusing it into the addition), then a strict-< update of each
// lane. len(x) ≥ 1 and len(blocked) is a multiple of 4·len(x).
func nearestScanGo(x, blocked []float32, m *laneMin) {
	d := len(x)
	for g := 0; len(blocked) > 0; g++ {
		blk := blocked[:4*d]
		blocked = blocked[4*d:]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			c := blk[4*j : 4*j+4 : 4*j+4]
			xv := float64(v)
			d0 := xv - float64(c[0])
			d1 := xv - float64(c[1])
			d2 := xv - float64(c[2])
			d3 := xv - float64(c[3])
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		if s0 < m.dist[0] {
			m.dist[0], m.group[0] = s0, g
		}
		if s1 < m.dist[1] {
			m.dist[1], m.group[1] = s1, g
		}
		if s2 < m.dist[2] {
			m.dist[2], m.group[2] = s2, g
		}
		if s3 < m.dist[3] {
			m.dist[3], m.group[3] = s3, g
		}
	}
}
