package sketch

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// TDigest is a merging t-digest quantile sketch: a sorted list of
// (mean, weight) centroids whose sizes are bounded by a scale function that
// keeps centroids small near the distribution's tails — quantile error is
// therefore relative to q(1-q), tight exactly where quantiles are
// interesting. Digests merge by concatenating centroid lists and
// re-compressing; the centroids are re-sorted by mean first, so a merge's
// result depends only on the multiset of inputs, not their arrival order —
// which keeps TBON reductions deterministic for a fixed tree shape.
type TDigest struct {
	compression    float64
	means, weights []float64 // compressed centroids, sorted by mean

	// buffer of uncompressed additions, folded in by compress.
	bufM, bufW []float64
}

// NewTDigest returns an empty digest. Compression below 20 clamps to 20
// (the sketch degenerates below that); ~100 is the standard default.
func NewTDigest(compression float64) *TDigest {
	if compression < 20 {
		compression = 20
	}
	return &TDigest{compression: compression}
}

// Add observes value x with weight w.
func (t *TDigest) Add(x, w float64) {
	if w <= 0 {
		return
	}
	t.bufM = append(t.bufM, x)
	t.bufW = append(t.bufW, w)
	if len(t.bufM) >= int(8*t.compression) {
		t.compress()
	}
}

// Merge folds o into t. Compression is deferred to the next read or
// encode, so a fan-in of merges compresses once over the union of
// centroids — the result depends only on the multiset of inputs, not the
// order the siblings arrived in.
func (t *TDigest) Merge(o *TDigest) {
	o.compress()
	t.bufM = append(t.bufM, o.means...)
	t.bufW = append(t.bufW, o.weights...)
}

// Count returns the total observed weight.
func (t *TDigest) Count() float64 {
	var c float64
	for _, w := range t.weights {
		c += w
	}
	for _, w := range t.bufW {
		c += w
	}
	return c
}

// compress folds the buffer into the centroid list and re-bounds centroid
// sizes by the k1-style limit 4·total·q(1-q)/δ at the centroid's midpoint
// quantile.
func (t *TDigest) compress() {
	if len(t.bufM) == 0 {
		return
	}
	n := len(t.means) + len(t.bufM)
	idx := make([]int, n)
	m := make([]float64, n)
	w := make([]float64, n)
	copy(m, t.means)
	copy(w, t.weights)
	copy(m[len(t.means):], t.bufM)
	copy(w[len(t.means):], t.bufW)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		// Tie-break on weight so equal-mean centroids group identically
		// regardless of arrival order.
		if m[idx[a]] != m[idx[b]] {
			return m[idx[a]] < m[idx[b]]
		}
		return w[idx[a]] < w[idx[b]]
	})
	var total float64
	for _, x := range w {
		total += x
	}

	outM := t.means[:0]
	outW := t.weights[:0]
	curM, curW := m[idx[0]], w[idx[0]]
	var done float64 // weight fully emitted so far
	for _, i := range idx[1:] {
		q := (done + (curW+w[i])/2) / total
		limit := 4 * total * q * (1 - q) / t.compression
		if curW+w[i] <= limit {
			merged := curW + w[i]
			curM += (m[i] - curM) * w[i] / merged
			curW = merged
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		done += curW
		curM, curW = m[i], w[i]
	}
	t.means = append(outM, curM)
	t.weights = append(outW, curW)
	t.bufM = t.bufM[:0]
	t.bufW = t.bufW[:0]
}

// Quantile estimates the value at quantile q in [0, 1], interpolating
// between centroid means at their cumulative-weight midpoints.
func (t *TDigest) Quantile(q float64) float64 {
	t.compress()
	if len(t.means) == 0 {
		return 0
	}
	if len(t.means) == 1 {
		return t.means[0]
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total float64
	for _, w := range t.weights {
		total += w
	}
	target := q * total
	var cum float64
	prevMid, prevMean := 0.0, t.means[0]
	for i := range t.means {
		mid := cum + t.weights[i]/2
		if target < mid || i == len(t.means)-1 {
			if i == 0 || mid == prevMid {
				return t.means[i]
			}
			frac := (target - prevMid) / (mid - prevMid)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return prevMean + frac*(t.means[i]-prevMean)
		}
		cum += t.weights[i]
		prevMid, prevMean = mid, t.means[i]
	}
	return t.means[len(t.means)-1]
}

// TDigestFormat is the payload layout: compression, means, weights.
const TDigestFormat = "%f %af %af"

// ToPacket encodes the digest (compressed form).
func (t *TDigest) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	t.compress()
	return packet.New(tag, streamID, src, TDigestFormat, t.compression, t.means, t.weights)
}

// TDigestFromPacket decodes a t-digest packet.
func TDigestFromPacket(p *packet.Packet) (*TDigest, error) {
	if p.Format() != TDigestFormat {
		return nil, fmt.Errorf("sketch: unexpected t-digest format %q", p.Format())
	}
	comp, err := p.Float(0)
	if err != nil {
		return nil, err
	}
	means, err := p.FloatArray(1)
	if err != nil {
		return nil, err
	}
	weights, err := p.FloatArray(2)
	if err != nil {
		return nil, err
	}
	if len(means) != len(weights) {
		return nil, fmt.Errorf("sketch: t-digest %d means but %d weights", len(means), len(weights))
	}
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("sketch: t-digest non-positive centroid weight %g", w)
		}
	}
	td := NewTDigest(comp)
	td.means = means
	td.weights = weights
	return td, nil
}
