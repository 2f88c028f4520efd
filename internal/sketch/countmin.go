package sketch

import (
	"fmt"

	"repro/internal/packet"
)

// defaultCMDepth is the number of hash rows; 4 rows bound the failure
// probability at e^-4 ≈ 1.8% per query.
const defaultCMDepth = 4

// CountMin is a count-min sketch: a depth×width counter matrix where each
// item increments one cell per row (chosen by row-independent hashes) and a
// point query reads the minimum over its cells — an overestimate by at most
// εN with probability 1-δ for width = e/ε, depth = ln(1/δ). Updates are
// plain additions (not the conservative variant), which is what makes two
// sketches merge exactly by cell-wise sum: the TBON reduction is then
// bit-identical to sketching the concatenated stream.
type CountMin struct {
	depth, width int
	rows         []int64 // depth*width, row-major
}

// NewCountMin returns an empty sketch. Non-positive dimensions clamp to 1.
func NewCountMin(depth, width int) *CountMin {
	if depth < 1 {
		depth = 1
	}
	if width < 1 {
		width = 1
	}
	return &CountMin{depth: depth, width: width, rows: make([]int64, depth*width)}
}

// cells yields the sketch's cell index for key in each row, by double
// hashing one 64-bit key hash.
func (cm *CountMin) cell(h uint64, row int) int {
	h1 := uint32(h)
	h2 := uint32(h>>32) | 1 // odd, so the probe sequence covers the row
	return int((h1 + uint32(row)*h2) % uint32(cm.width))
}

// Add counts the key n times.
func (cm *CountMin) Add(key string, n int64) {
	h := hash64(key)
	for r := 0; r < cm.depth; r++ {
		cm.rows[r*cm.width+cm.cell(h, r)] += n
	}
}

// Estimate returns the key's frequency estimate (never an underestimate).
func (cm *CountMin) Estimate(key string) int64 {
	h := hash64(key)
	min := int64(-1)
	for r := 0; r < cm.depth; r++ {
		v := cm.rows[r*cm.width+cm.cell(h, r)]
		if min < 0 || v < min {
			min = v
		}
	}
	return min
}

// Merge folds o into cm by cell-wise sum. Dimensions must match.
func (cm *CountMin) Merge(o *CountMin) error {
	if cm.depth != o.depth || cm.width != o.width {
		return fmt.Errorf("sketch: count-min dims %dx%d vs %dx%d", cm.depth, cm.width, o.depth, o.width)
	}
	for i, v := range o.rows {
		cm.rows[i] += v
	}
	return nil
}

// CountMinFormat is the payload layout: depth, width, row-major counters.
const CountMinFormat = "%d %d %ad"

// ToPacket encodes the sketch.
func (cm *CountMin) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	return packet.New(tag, streamID, src, CountMinFormat,
		int64(cm.depth), int64(cm.width), cm.rows)
}

// CountMinFromPacket decodes a count-min packet.
func CountMinFromPacket(p *packet.Packet) (*CountMin, error) {
	if p.Format() != CountMinFormat {
		return nil, fmt.Errorf("sketch: unexpected count-min format %q", p.Format())
	}
	depth, err := p.Int(0)
	if err != nil {
		return nil, err
	}
	width, err := p.Int(1)
	if err != nil {
		return nil, err
	}
	rows, err := p.IntArray(2)
	if err != nil {
		return nil, err
	}
	if depth < 1 || width < 1 || int64(len(rows)) != depth*width {
		return nil, fmt.Errorf("sketch: count-min %dx%d with %d cells", depth, width, len(rows))
	}
	return &CountMin{depth: int(depth), width: int(width), rows: rows}, nil
}
