package router

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"accelscore/internal/storage/pagefmt"
)

// The binary representation of a /score reply. A router asks for it with
// "Accept: application/x-accelscore-frame"; a shard that understands answers
// with that Content-Type and one pagefmt frame (length | CRC32 | payload),
// anything else answers JSON, and the router decodes by the reply's
// Content-Type. The payload is built from pagefmt cells:
//
//	byte     version (frameVersion)
//	byte     flags: 1 cache_hit, 2 fused, 4 predictions are uvarints
//	string   shard_id, backend, fallback_from, fallback_reason, trace_id,
//	         error, code
//	int64    rows_scanned, rows_scored, retries
//	spans    timeline, scoring_detail: uvarint count, then per span
//	         string name, int64 kind, int64 ns
//	uvarint  len(scored_rows), then one uvarint per ordinal: its distance
//	         from the previous ordinal, the first from -1
//	uvarint  len(predictions), then one byte per class, or one uvarint per
//	         class when flag 4 says the largest class needs more than a byte
//	uvarint  len(class_counts), then one int64 per count
//
// Every ordinal delta is at least 1, so a frame cannot express the
// out-of-order or repeated ordinal that Merge would have to reject, and each
// Result has exactly one accepted spelling: shortest uvarints only, the byte
// form whenever it fits, no unknown flags, no trailing bytes.
const (
	// FrameContentType names the binary /score representation in Accept and
	// Content-Type headers.
	FrameContentType = "application/x-accelscore-frame"
	// MaxFrameBytes caps the payload a router accepts from one shard.
	MaxFrameBytes = 64 << 20

	frameVersion = 1

	flagCacheHit     = 1 << 0
	flagFused        = 1 << 1
	flagWidePredicts = 1 << 2
	flagsKnown       = flagCacheHit | flagFused | flagWidePredicts
)

// frameStrings lists r's string fields in payload order.
func frameStrings(r *Result) [7]*string {
	return [7]*string{&r.ShardID, &r.Backend, &r.FallbackFrom, &r.FallbackReason, &r.TraceID, &r.Error, &r.Code}
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// maxClass returns the largest prediction, or an error on a negative one
// (classes index a histogram; the frame has no spelling for them).
func maxClass(preds []int) (int, error) {
	max := 0
	for _, p := range preds {
		if p < 0 {
			return 0, fmt.Errorf("router: negative class %d has no frame encoding", p)
		}
		if p > max {
			max = p
		}
	}
	return max, nil
}

// frameSizeHint bounds the encoded frame of r from above, given its largest
// class, so the encoder allocates once.
func frameSizeHint(r *Result, maxClass int) int {
	n := pagefmt.FrameOverhead + 2 + 3*8 + 5*binary.MaxVarintLen64
	for _, s := range frameStrings(r) {
		n += binary.MaxVarintLen64 + len(*s)
	}
	for _, spans := range [][]WireSpan{r.Timeline, r.ScoringDetail} {
		for _, s := range spans {
			n += binary.MaxVarintLen64 + len(s.Name) + 2*8
		}
	}
	if k := len(r.ScoredRows); k > 0 {
		// Ascending ordinals are k deltas that sum to the last ordinal plus
		// one: a byte each, and one more for every delta that reaches 128,
		// 128², … — at most sum>>7, sum>>14, … of them can. (A list that
		// does not ascend fails the encode anyway.)
		n += k
		for sum := uint64(r.ScoredRows[k-1]) + 1; sum >= 128; {
			sum >>= 7
			n += int(min(sum, uint64(k)))
		}
	}
	width := 1
	if maxClass > math.MaxUint8 {
		width = uvarintLen(uint64(maxClass))
	}
	return n + width*len(r.Predictions) + 8*len(r.ClassCounts)
}

// EncodeFrame renders r as one pagefmt frame. It fails on what the frame
// cannot spell: a negative class, or scan ordinals that are not strictly
// ascending.
func EncodeFrame(r *Result) ([]byte, error) {
	max, err := maxClass(r.Predictions)
	if err != nil {
		return nil, err
	}
	// One allocation holds the payload and, behind it, its frame.
	hint := frameSizeHint(r, max)
	b := make([]byte, 0, 2*hint)

	flags := byte(0)
	if r.CacheHit {
		flags |= flagCacheHit
	}
	if r.Fused {
		flags |= flagFused
	}
	if max > math.MaxUint8 {
		flags |= flagWidePredicts
	}
	b = append(b, frameVersion, flags)
	for _, s := range frameStrings(r) {
		b = pagefmt.AppendString(b, *s)
	}
	b = pagefmt.AppendInt64(b, int64(r.RowsScanned))
	b = pagefmt.AppendInt64(b, int64(r.RowsScored))
	b = pagefmt.AppendInt64(b, int64(r.Retries))
	for _, spans := range [][]WireSpan{r.Timeline, r.ScoringDetail} {
		b = binary.AppendUvarint(b, uint64(len(spans)))
		for _, s := range spans {
			b = pagefmt.AppendString(b, s.Name)
			b = pagefmt.AppendInt64(b, int64(s.Kind))
			b = pagefmt.AppendInt64(b, s.NS)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(r.ScoredRows)))
	prev := -1
	for _, row := range r.ScoredRows {
		if row <= prev {
			return nil, fmt.Errorf("router: scan ordinal %d after %d: ordinals must ascend strictly", row, prev)
		}
		b = binary.AppendUvarint(b, uint64(row-prev))
		prev = row
	}
	b = binary.AppendUvarint(b, uint64(len(r.Predictions)))
	if max > math.MaxUint8 {
		for _, p := range r.Predictions {
			b = binary.AppendUvarint(b, uint64(p))
		}
	} else {
		for _, p := range r.Predictions {
			b = append(b, byte(p))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.ClassCounts)))
	for _, c := range r.ClassCounts {
		b = pagefmt.AppendInt64(b, c)
	}
	return pagefmt.AppendFrame(b[len(b):], b), nil
}

// DecodeFrame parses exactly one frame produced by EncodeFrame. A bad CRC, a
// truncated or oversized frame, and any payload EncodeFrame could not have
// written are errors; the Result shares no memory with data.
func DecodeFrame(data []byte) (*Result, error) {
	payload, consumed, err := pagefmt.DecodeFrame(data, MaxFrameBytes)
	if err != nil {
		return nil, err
	}
	if consumed != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the frame", pagefmt.ErrFrame, len(data)-consumed)
	}
	c := pagefmt.NewCellReader(payload)
	head, err := c.Next(2)
	if err != nil {
		return nil, err
	}
	version, flags := head[0], head[1]
	if version != frameVersion {
		return nil, fmt.Errorf("%w: unknown result frame version %d", pagefmt.ErrPayload, version)
	}
	if flags&^flagsKnown != 0 {
		return nil, fmt.Errorf("%w: unknown result frame flags %#x", pagefmt.ErrPayload, flags)
	}
	r := &Result{CacheHit: flags&flagCacheHit != 0, Fused: flags&flagFused != 0}
	for _, s := range frameStrings(r) {
		if *s, err = c.String(); err != nil {
			return nil, err
		}
	}
	for _, v := range []*int{&r.RowsScanned, &r.RowsScored, &r.Retries} {
		if *v, err = readInt(c); err != nil {
			return nil, err
		}
	}
	for _, spans := range []*[]WireSpan{&r.Timeline, &r.ScoringDetail} {
		// A span is at least a length byte and two int64 cells.
		n, err := readCount(c, 17)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		*spans = make([]WireSpan, n)
		for i := range *spans {
			s := &(*spans)[i]
			if s.Name, err = c.String(); err != nil {
				return nil, err
			}
			if s.Kind, err = readInt(c); err != nil {
				return nil, err
			}
			if s.NS, err = c.Int64(); err != nil {
				return nil, err
			}
		}
	}

	n, err := readCount(c, 1)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		r.ScoredRows = make([]int, n)
		next := uint64(0) // the smallest ordinal the next row may have
		for i := range r.ScoredRows {
			delta, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if delta == 0 || next > math.MaxInt || delta-1 > math.MaxInt-next {
				return nil, fmt.Errorf("%w: ordinal delta %d after row %d", pagefmt.ErrPayload, delta, int64(next)-1)
			}
			row := next + delta - 1
			r.ScoredRows[i] = int(row)
			next = row + 1
		}
	}

	if n, err = readCount(c, 1); err != nil {
		return nil, err
	}
	if n > 0 {
		r.Predictions = make([]int, n)
		if flags&flagWidePredicts == 0 {
			raw, err := c.Next(n)
			if err != nil {
				return nil, err
			}
			for i, b := range raw {
				r.Predictions[i] = int(b)
			}
		} else {
			max := uint64(0)
			for i := range r.Predictions {
				p, err := c.Uvarint()
				if err != nil {
					return nil, err
				}
				if p > math.MaxInt {
					return nil, fmt.Errorf("%w: class %d overflows", pagefmt.ErrPayload, p)
				}
				if p > max {
					max = p
				}
				r.Predictions[i] = int(p)
			}
			if max <= math.MaxUint8 {
				return nil, fmt.Errorf("%w: classes up to %d spelled as uvarints", pagefmt.ErrPayload, max)
			}
		}
	} else if flags&flagWidePredicts != 0 {
		return nil, fmt.Errorf("%w: no predictions spelled as uvarints", pagefmt.ErrPayload)
	}

	if n, err = readCount(c, 8); err != nil {
		return nil, err
	}
	if n > 0 {
		r.ClassCounts = make([]int64, n)
		for i := range r.ClassCounts {
			if r.ClassCounts[i], err = c.Int64(); err != nil {
				return nil, err
			}
		}
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last column", pagefmt.ErrPayload, c.Remaining())
	}
	return r, nil
}

// readInt decodes an int64 cell into an int.
func readInt(c *pagefmt.CellReader) (int, error) {
	v, err := c.Int64()
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, fmt.Errorf("%w: %d overflows int", pagefmt.ErrPayload, v)
	}
	return int(v), nil
}

// readCount decodes a column length and refuses one the remaining payload
// cannot hold at minCell bytes per element, so a forged count never drives
// the allocation that follows it.
func readCount(c *pagefmt.CellReader, minCell int) (int, error) {
	n, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(c.Remaining()/minCell) {
		return 0, fmt.Errorf("%w: %d cells cannot fit in %d payload bytes", pagefmt.ErrPayload, n, c.Remaining())
	}
	return int(n), nil
}
