// Package pagefmt defines the binary column-page format of the database
// snapshot files, the CRC frame, and CellReader, the one byte cursor every
// binary decoder in the module reads through: the router's /score frame, the
// write-ahead log's records (internal/storage), the RFX model blobs
// (internal/model) and the snapshot's file and table headers (internal/db).
// The decoding policy — a bounds check before every read, little-endian
// fixed-width cells, only the shortest uvarint spelling, a typed error — is
// decided here and nowhere else.
//
// A page is one contiguous run of cells from a single column:
//
//	offset  size  field
//	0       4     magic "ACPG"
//	4       2     format version (little-endian uint16)
//	6       1     column type (ColType)
//	7       1     flags (reserved, must be zero)
//	8       4     column index within the table schema
//	12      4     row count in this page
//	16      4     payload length in bytes
//	20      8     first row index covered by this page
//	28      8     table version at serialization time
//	36      4     IEEE CRC32 over bytes [0,36) plus the payload
//	40      —     payload (cell encoding depends on the column type)
//
// Fixed-width cells (float32, int64) are packed little-endian with no
// per-cell framing, so a page of features is a straight memcpy away from the
// column-store → tensor conversion the scoring pipeline performs — the data
// pre-processing overhead the paper charges to every query. Variable-width
// cells (text, blob) are uvarint-length-prefixed.
//
// Every page carries its own checksum: a torn or bit-flipped page is
// detected at decode time and surfaces as a typed error, never as silently
// wrong data. The package is a leaf — it depends only on the standard
// library — so every package above can share it without an import cycle.
package pagefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Format constants.
const (
	// Version is the current page format version.
	Version = 1
	// HeaderSize is the fixed encoded page header size in bytes.
	HeaderSize = 40
	// MaxPayload caps a single page's payload so a corrupt length field can
	// never drive a huge allocation. Oversized cells (a model blob bigger
	// than DefaultPayload) still fit: the cap is generous.
	MaxPayload = 1 << 28 // 256 MiB
	// DefaultPayload is the target payload size Builder flushes at.
	DefaultPayload = 32 << 10 // 32 KiB
)

var pageMagic = [4]byte{'A', 'C', 'P', 'G'}

// ColType enumerates the cell encodings a page can hold. The values mirror
// internal/db's ColumnType so conversion is a cast at the boundary.
type ColType uint8

// Supported column types.
const (
	Float32 ColType = 0
	Int64   ColType = 1
	Text    ColType = 2
	Blob    ColType = 3
)

// Valid reports whether t is a known column type.
func (t ColType) Valid() bool { return t <= Blob }

// Fixed returns the fixed cell width in bytes, or 0 for variable-width
// types.
func (t ColType) Fixed() int {
	switch t {
	case Float32:
		return 4
	case Int64:
		return 8
	default:
		return 0
	}
}

// Typed decode errors. Callers branch with errors.Is; decode never panics on
// hostile input and never returns silently wrong data.
var (
	// ErrBadMagic reports input that does not start with a page header.
	ErrBadMagic = errors.New("pagefmt: bad page magic")
	// ErrTruncated reports input shorter than its header claims.
	ErrTruncated = errors.New("pagefmt: truncated page")
	// ErrChecksum reports a CRC mismatch: the page bytes were corrupted.
	ErrChecksum = errors.New("pagefmt: page checksum mismatch")
	// ErrHeader reports a structurally invalid header (unknown version or
	// type, nonzero reserved flags, impossible lengths).
	ErrHeader = errors.New("pagefmt: invalid page header")
	// ErrPayload reports a payload that does not decode to the advertised
	// row count.
	ErrPayload = errors.New("pagefmt: invalid page payload")
)

// Page is one decoded (or to-be-encoded) column page.
type Page struct {
	Type         ColType
	ColIndex     uint32
	Rows         uint32
	StartRow     uint64
	TableVersion uint64
	Payload      []byte
}

// AppendHeader appends the page's header, whose CRC covers the payload too,
// to dst: a writer sends it and then p.Payload as it lies, copying nothing.
func (p *Page) AppendHeader(dst []byte) []byte {
	base := len(dst)
	dst = append(dst, pageMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = append(dst, byte(p.Type), 0)
	dst = binary.LittleEndian.AppendUint32(dst, p.ColIndex)
	dst = binary.LittleEndian.AppendUint32(dst, p.Rows)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Payload)))
	dst = binary.LittleEndian.AppendUint64(dst, p.StartRow)
	dst = binary.LittleEndian.AppendUint64(dst, p.TableVersion)
	crc := crc32.Update(crc32.ChecksumIEEE(dst[base:base+36]), crc32.IEEETable, p.Payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Decode parses one page from the front of data, returning the page and the
// number of bytes consumed. The returned payload aliases data.
func Decode(data []byte) (*Page, int, error) {
	if len(data) < HeaderSize {
		if len(data) >= 4 && [4]byte(data[:4]) != pageMagic {
			return nil, 0, ErrBadMagic
		}
		return nil, 0, ErrTruncated
	}
	if [4]byte(data[:4]) != pageMagic {
		return nil, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, 0, fmt.Errorf("%w: unknown version %d", ErrHeader, v)
	}
	p := &Page{
		Type:         ColType(data[6]),
		ColIndex:     binary.LittleEndian.Uint32(data[8:12]),
		Rows:         binary.LittleEndian.Uint32(data[12:16]),
		StartRow:     binary.LittleEndian.Uint64(data[20:28]),
		TableVersion: binary.LittleEndian.Uint64(data[28:36]),
	}
	if data[7] != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero reserved flags", ErrHeader)
	}
	if !p.Type.Valid() {
		return nil, 0, fmt.Errorf("%w: unknown column type %d", ErrHeader, data[6])
	}
	payloadLen := binary.LittleEndian.Uint32(data[16:20])
	if payloadLen > MaxPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrHeader, payloadLen)
	}
	if w := p.Type.Fixed(); w != 0 && uint64(payloadLen) != uint64(p.Rows)*uint64(w) {
		return nil, 0, fmt.Errorf("%w: %d rows of width %d need %d payload bytes, header says %d",
			ErrHeader, p.Rows, w, uint64(p.Rows)*uint64(w), payloadLen)
	}
	if w := p.Type.Fixed(); w == 0 && uint64(payloadLen) < uint64(p.Rows) {
		// Every variable-width cell costs at least one length byte.
		return nil, 0, fmt.Errorf("%w: %d rows cannot fit in %d payload bytes", ErrHeader, p.Rows, payloadLen)
	}
	total := HeaderSize + int(payloadLen)
	if len(data) < total {
		return nil, 0, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(data[36:40])
	crc := crc32.NewIEEE()
	crc.Write(data[:36])
	crc.Write(data[HeaderSize:total])
	if crc.Sum32() != want {
		return nil, 0, ErrChecksum
	}
	p.Payload = data[HeaderSize:total]
	return p, total, nil
}

// AppendFloat32s appends a Float32 page's cells to dst, eight a turn: a turn
// per cell measured twice as slow.
func (p *Page) AppendFloat32s(dst []float32) []float32 {
	src, off := p.Payload, len(dst)
	dst = slices.Grow(dst, len(src)/4)[:off+len(src)/4]
	out := dst[off:]
	for ; len(src) >= 32 && len(out) >= 8; src, out = src[32:], out[8:] {
		s, o := src[:32:32], out[:8:8]
		o[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:4]))
		o[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:8]))
		o[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:12]))
		o[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:16]))
		o[4] = math.Float32frombits(binary.LittleEndian.Uint32(s[16:20]))
		o[5] = math.Float32frombits(binary.LittleEndian.Uint32(s[20:24]))
		o[6] = math.Float32frombits(binary.LittleEndian.Uint32(s[24:28]))
		o[7] = math.Float32frombits(binary.LittleEndian.Uint32(s[28:32]))
	}
	for ; len(src) >= 4 && len(out) >= 1; src, out = src[4:], out[1:] {
		out[0] = math.Float32frombits(binary.LittleEndian.Uint32(src))
	}
	return dst
}

// ReadPage reads one page from r into *buf, which it leaves grown for the
// next call to reuse: the page's payload aliases *buf until then.
func ReadPage(r io.Reader, buf *[]byte) (*Page, error) {
	hdr := append((*buf)[:0], make([]byte, HeaderSize)...)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[16:20])
	if payloadLen > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap", ErrHeader, payloadLen)
	}
	data, err := readAfter(r, hdr, int(payloadLen))
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	*buf = data
	p, _, err := Decode(data)
	return p, err
}

// readChunk is how much readAfter allocates before any bytes have arrived.
const readChunk = 1 << 20

// readAfter returns head followed by the next n bytes of r, in head's spare
// capacity first. The buffer grows as the bytes arrive, at most doubling, so
// a corrupt length costs memory in proportion to what r holds, not claims.
func readAfter(r io.Reader, head []byte, n int) ([]byte, error) {
	total, buf := len(head)+n, head
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(total, max(2*len(buf), len(head)+readChunk))), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):min(total, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- Cell codecs ---

// AppendFloat32 appends a fixed-width float32 cell.
func AppendFloat32(dst []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
}

// AppendInt64 appends a fixed-width int64 cell.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendBytes appends a uvarint-length-prefixed variable-width cell (text or
// blob).
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString is AppendBytes for string cells without an intermediate copy.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// CellReader decodes a payload sequentially: a page's cells, a frame's
// fields, a WAL record or an RFX blob. Every read checks bounds before it
// touches a byte, fixed-width cells are little-endian, and every failure
// wraps ErrPayload.
type CellReader struct {
	data []byte
	off  int
}

// NewCellReader wraps a payload for sequential decoding.
func NewCellReader(payload []byte) *CellReader { return &CellReader{data: payload} }

// Remaining returns the number of undecoded bytes.
func (c *CellReader) Remaining() int { return len(c.data) - c.off }

// errShort reports a fixed-width read past the end of the payload. It is
// built once, not per read, which keeps the fixed-width reads small enough
// to inline into decode loops.
var errShort = fmt.Errorf("%w: short fixed-width cell", ErrPayload)

// Byte decodes the next single-byte cell.
func (c *CellReader) Byte() (byte, error) {
	if c.Remaining() < 1 {
		return 0, errShort
	}
	c.off++
	return c.data[c.off-1], nil
}

// Uint16 decodes the next fixed-width little-endian uint16 cell.
func (c *CellReader) Uint16() (uint16, error) {
	if c.Remaining() < 2 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint16(c.data[c.off:])
	c.off += 2
	return v, nil
}

// Uint32 decodes the next fixed-width little-endian uint32 cell.
func (c *CellReader) Uint32() (uint32, error) {
	if c.Remaining() < 4 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

// Uint64 decodes the next fixed-width little-endian uint64 cell.
func (c *CellReader) Uint64() (uint64, error) {
	if c.Remaining() < 8 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

// Float32 decodes the next fixed-width float32 cell.
func (c *CellReader) Float32() (float32, error) {
	v, err := c.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes the next fixed-width float64 cell.
func (c *CellReader) Float64() (float64, error) {
	v, err := c.Uint64()
	return math.Float64frombits(v), err
}

// Int64 decodes the next fixed-width int64 cell.
func (c *CellReader) Int64() (int64, error) {
	v, err := c.Uint64()
	return int64(v), err
}

// Uvarint decodes the next uvarint cell. Only the shortest spelling of a
// value is accepted, so a payload has exactly one accepted encoding.
func (c *CellReader) Uvarint() (uint64, error) {
	v, sz := binary.Uvarint(c.data[c.off:])
	if sz <= 0 || (sz > 1 && c.data[c.off+sz-1] == 0) {
		return 0, fmt.Errorf("%w: bad uvarint cell", ErrPayload)
	}
	c.off += sz
	return v, nil
}

// Next returns the next n raw bytes (a packed run of single-byte cells).
// The result aliases the payload.
func (c *CellReader) Next(n int) ([]byte, error) {
	if n < 0 || n > c.Remaining() {
		return nil, fmt.Errorf("%w: run of %d bytes exceeds remaining payload", ErrPayload, n)
	}
	c.off += n
	return c.data[c.off-n : c.off], nil
}

// Bytes decodes the next variable-width cell. The result aliases the
// payload.
func (c *CellReader) Bytes() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: bad cell length prefix", ErrPayload)
	}
	if n > uint64(c.Remaining()) {
		return nil, fmt.Errorf("%w: cell length %d exceeds remaining payload", ErrPayload, n)
	}
	return c.Next(int(n))
}

// String decodes the next variable-width cell as a string (copies).
func (c *CellReader) String() (string, error) {
	b, err := c.Bytes()
	return string(b), err
}

// --- Frames ---

// Frames wrap non-page metadata (file headers, table schemas, WAL records)
// in the same torn-write/corruption armor pages get:
//
//	length uint32 | crc32(payload) uint32 | payload
var (
	// ErrFrame reports a structurally invalid frame.
	ErrFrame = errors.New("pagefmt: invalid frame")
	// ErrFrameChecksum reports a frame whose payload fails its CRC.
	ErrFrameChecksum = errors.New("pagefmt: frame checksum mismatch")
	// ErrFrameTruncated reports a frame cut short (a torn write).
	ErrFrameTruncated = errors.New("pagefmt: truncated frame")
)

// FrameOverhead is the fixed per-frame framing cost in bytes.
const FrameOverhead = 8

// AppendFrame appends a length+CRC framed payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	base := len(dst)
	dst = append(append(dst, make([]byte, FrameOverhead)...), payload...)
	PutFrameHeader(dst[base:])
	return dst
}

// PutFrameHeader frames in place: it writes the length and CRC of
// frame[FrameOverhead:] into frame[:FrameOverhead], so a payload built after
// FrameOverhead bytes of room becomes a frame without being copied.
func PutFrameHeader(frame []byte) {
	payload := frame[FrameOverhead:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// DecodeFrame parses one frame from the front of data, returning the payload
// (aliasing data) and the bytes consumed. maxLen bounds the accepted payload
// length so corrupt lengths cannot drive huge reads.
func DecodeFrame(data []byte, maxLen uint32) (payload []byte, consumed int, err error) {
	if len(data) < FrameOverhead {
		return nil, 0, ErrFrameTruncated
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxLen {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrFrame, n, maxLen)
	}
	total := FrameOverhead + int(n)
	if len(data) < total {
		return nil, 0, ErrFrameTruncated
	}
	payload = data[FrameOverhead:total]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, ErrFrameChecksum
	}
	return payload, total, nil
}

// ReadFrame reads one frame from r. io.EOF at a frame boundary is returned
// as io.EOF; a partial frame returns ErrFrameTruncated.
func ReadFrame(r io.Reader, maxLen uint32) ([]byte, error) {
	var hdr [FrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxLen {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrFrame, n, maxLen)
	}
	payload, err := readAfter(r, nil, int(n))
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// --- Builder ---

// Builder accumulates one column's cells and emits full pages as the payload
// budget fills, so serializing a table streams page by page instead of
// materializing the whole column. The zero Builder is not usable; call
// Reset. A Builder is reusable across columns to amortize buffer
// allocations.
type Builder struct {
	page       Page
	maxPayload int
	emit       func(*Page) error
}

// Reset prepares the builder for a new column. maxPayload <= 0 selects
// DefaultPayload.
func (b *Builder) Reset(typ ColType, colIndex uint32, tableVersion uint64, maxPayload int, emit func(*Page) error) {
	if maxPayload <= 0 {
		maxPayload = DefaultPayload
	}
	b.page = Page{
		Type:         typ,
		ColIndex:     colIndex,
		TableVersion: tableVersion,
		Payload:      b.page.Payload[:0],
	}
	b.maxPayload = maxPayload
	b.emit = emit
}

// flushIfFull emits the current page when the payload budget is exceeded.
func (b *Builder) flushIfFull() error {
	if len(b.page.Payload) < b.maxPayload {
		return nil
	}
	return b.Flush()
}

// Flush emits the in-progress page if it holds any rows.
func (b *Builder) Flush() error {
	if b.page.Rows == 0 {
		return nil
	}
	if err := b.emit(&b.page); err != nil {
		return err
	}
	b.page.StartRow += uint64(b.page.Rows)
	b.page.Rows = 0
	b.page.Payload = b.page.Payload[:0]
	return nil
}

// AddFloat32s appends n float32 cells read stride apart from src, such as a
// REAL column of a row-major block: each page fills in one loop and is
// emitted where the budget fills, as after n single-cell appends.
func (b *Builder) AddFloat32s(src []float32, stride, n int) error {
	for j := 0; n > 0; {
		k := min(n, max(1, (b.maxPayload-len(b.page.Payload)+3)/4))
		off := len(b.page.Payload)
		b.page.Payload = slices.Grow(b.page.Payload, 4*k)[:off+4*k]
		dst := b.page.Payload[off:]
		for i := 0; i < k; i, j = i+1, j+stride {
			binary.LittleEndian.PutUint32(dst[4*i:4*i+4], math.Float32bits(src[j]))
		}
		b.page.Rows += uint32(k)
		n -= k
		if err := b.flushIfFull(); err != nil {
			return err
		}
	}
	return nil
}

// AddInt64 appends one int64 cell.
func (b *Builder) AddInt64(v int64) error {
	b.page.Payload = AppendInt64(b.page.Payload, v)
	b.page.Rows++
	return b.flushIfFull()
}

// AddBytes appends one variable-width cell. A cell larger than the page
// budget gets a page of its own rather than splitting.
func (b *Builder) AddBytes(v []byte) error {
	if len(b.page.Payload) > 0 && len(b.page.Payload)+len(v) > b.maxPayload {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	b.page.Payload = AppendBytes(b.page.Payload, v)
	b.page.Rows++
	return b.flushIfFull()
}

// AddString appends one text cell.
func (b *Builder) AddString(s string) error {
	if len(b.page.Payload) > 0 && len(b.page.Payload)+len(s) > b.maxPayload {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	b.page.Payload = AppendString(b.page.Payload, s)
	b.page.Rows++
	return b.flushIfFull()
}
