package vecmath

// ADCRow fills row with the float32 squared distances from the query
// subvector q to the len(row) centroids of a blocked codebook of width
// len(q) (BlockCentroids): row[c] = ‖q − centroid c‖², one row of a
// product quantizer's asymmetric-distance lookup table. Nothing past
// row[len(row)−1] is written, so rows may sit back to back in one flat
// table.
//
// Each distance is summed in one of two fixed orders, every difference,
// square and sum rounded to float32 on its own: at width 4 in pairs,
// (d0²+d1²)+(d2²+d3²); at every other width sequentially from +0,
// dimension j ascending. The bits are defined by adcRowGo; on amd64 with
// AVX2 an assembly kernel performs the same operations (Kernel names
// which).
func ADCRow(row, q, blocked []float32) {
	if len(q) == 0 || len(blocked) != blockedLen(len(row), len(q)) {
		panic("vecmath: ADCRow shape mismatch")
	}
	adcRow(row, q, blocked)
}

// adcRowGo is ADCRow's definition, the fallback without AVX2 and the
// oracle the assembly is tested against. It walks the blocked codebook a
// group of four centroids at a time, four independent sums per group; a
// padding lane's NaN is computed but never stored. The float32(…) around
// each product forbids fusing it into the addition (the compiler would
// on arm64), so the bits are the same on every GOARCH.
func adcRowGo(row, q, blocked []float32) {
	w := len(q)
	for c := 0; c < len(row); c += 4 {
		blk := blocked[c*w : (c+4)*w : (c+4)*w]
		var v [4]float32
		if w == 4 {
			q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
			for l := range v {
				d0 := q0 - blk[l]
				d1 := q1 - blk[4+l]
				d2 := q2 - blk[8+l]
				d3 := q3 - blk[12+l]
				v[l] = (float32(d0*d0) + float32(d1*d1)) + (float32(d2*d2) + float32(d3*d3))
			}
		} else {
			var a0, a1, a2, a3 float32
			for j, x := range q {
				e := blk[4*j : 4*j+4 : 4*j+4]
				d0 := x - e[0]
				d1 := x - e[1]
				d2 := x - e[2]
				d3 := x - e[3]
				a0 += float32(d0 * d0)
				a1 += float32(d1 * d1)
				a2 += float32(d2 * d2)
				a3 += float32(d3 * d3)
			}
			v = [4]float32{a0, a1, a2, a3}
		}
		if c+4 <= len(row) {
			r := row[c : c+4 : c+4]
			r[0], r[1], r[2], r[3] = v[0], v[1], v[2], v[3]
		} else {
			copy(row[c:], v[:])
		}
	}
}
