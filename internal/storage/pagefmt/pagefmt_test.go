package pagefmt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// buildPage encodes a float32 page with n sequential values.
func buildPage(t *testing.T, n int) []byte {
	t.Helper()
	p := Page{Type: Float32, ColIndex: 2, StartRow: 100, TableVersion: 7}
	for i := 0; i < n; i++ {
		p.Payload = AppendFloat32(p.Payload, float32(i)+0.5)
	}
	p.Rows = uint32(n)
	return p.AppendTo(nil)
}

func TestPageRoundTrip(t *testing.T) {
	enc := buildPage(t, 10)
	p, consumed, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if consumed != len(enc) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(enc))
	}
	if p.Type != Float32 || p.ColIndex != 2 || p.StartRow != 100 || p.TableVersion != 7 || p.Rows != 10 {
		t.Fatalf("header mismatch: %+v", p)
	}
	cr := NewCellReader(p.Payload)
	for i := 0; i < 10; i++ {
		v, err := cr.Float32()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if v != float32(i)+0.5 {
			t.Fatalf("cell %d = %v", i, v)
		}
	}
	if cr.Remaining() != 0 {
		t.Fatalf("%d trailing payload bytes", cr.Remaining())
	}
}

func TestPageVariableWidthRoundTrip(t *testing.T) {
	p := Page{Type: Blob, Rows: 3}
	p.Payload = AppendBytes(p.Payload, []byte("alpha"))
	p.Payload = AppendBytes(p.Payload, nil)
	p.Payload = AppendString(p.Payload, "gamma")
	enc := p.AppendTo(nil)
	back, _, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	cr := NewCellReader(back.Payload)
	for i, want := range []string{"alpha", "", "gamma"} {
		got, err := cr.Bytes()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("cell %d = %q, want %q", i, got, want)
		}
	}
}

func TestPageDecodeCorruption(t *testing.T) {
	enc := buildPage(t, 8)

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] = 'X'
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, HeaderSize - 1, HeaderSize, len(enc) - 1} {
			if _, _, err := Decode(enc[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("bit-flip-payload", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[HeaderSize+3] ^= 0x40
		if _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("bit-flip-header", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[21] ^= 0x01 // StartRow byte: header CRC must catch it
		if _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("row-payload-mismatch", func(t *testing.T) {
		p := Page{Type: Float32, Rows: 5}
		p.Payload = AppendFloat32(nil, 1) // 1 cell, header claims 5
		if _, _, err := Decode(p.AppendTo(nil)); !errors.Is(err, ErrHeader) {
			t.Fatalf("want ErrHeader for row/payload mismatch")
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		p := Page{Type: ColType(9), Rows: 0}
		if _, _, err := Decode(p.AppendTo(nil)); !errors.Is(err, ErrHeader) {
			t.Fatalf("want ErrHeader for unknown type")
		}
	})
}

func TestReadPageFromStream(t *testing.T) {
	var stream []byte
	stream = append(stream, buildPage(t, 4)...)
	stream = append(stream, buildPage(t, 6)...)
	r := bytes.NewReader(stream)
	p1, err := ReadPage(r)
	if err != nil || p1.Rows != 4 {
		t.Fatalf("page 1: %v rows=%d", err, p1.Rows)
	}
	p2, err := ReadPage(r)
	if err != nil || p2.Rows != 6 {
		t.Fatalf("page 2: %v rows=%d", err, p2.Rows)
	}
	if _, err := ReadPage(r); !errors.Is(err, io.EOF) {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
	// A stream cut mid-page reports a torn page.
	if _, err := ReadPage(bytes.NewReader(stream[:HeaderSize+2])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn stream: %v", err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := []byte("hello frame")
	enc := AppendFrame(nil, payload)
	got, n, err := DecodeFrame(enc, 1<<20)
	if err != nil || n != len(enc) || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v n=%d got=%q", err, n, got)
	}
	if _, _, err := DecodeFrame(enc[:len(enc)-2], 1<<20); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[FrameOverhead+1] ^= 0x10
	if _, _, err := DecodeFrame(bad, 1<<20); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("bit flip: %v", err)
	}
	if _, _, err := DecodeFrame(enc, 4); !errors.Is(err, ErrFrame) {
		t.Fatalf("length cap: %v", err)
	}
}

func TestBuilderFlushesAtBudget(t *testing.T) {
	var pages []*Page
	var b Builder
	b.Reset(Float32, 0, 42, 16, func(p *Page) error {
		cp := *p
		cp.Payload = append([]byte(nil), p.Payload...)
		pages = append(pages, &cp)
		return nil
	})
	for i := 0; i < 10; i++ { // 40 payload bytes at budget 16 -> pages of 4 rows
		if err := b.AddFloat32(float32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(pages))
	}
	var rows uint64
	for _, p := range pages {
		if p.StartRow != rows {
			t.Fatalf("page start %d, want %d", p.StartRow, rows)
		}
		if p.TableVersion != 42 {
			t.Fatalf("page version %d", p.TableVersion)
		}
		rows += uint64(p.Rows)
	}
	if rows != 10 {
		t.Fatalf("pages cover %d rows", rows)
	}
}

func TestBuilderOversizedCellGetsOwnPage(t *testing.T) {
	var pages []*Page
	var b Builder
	b.Reset(Blob, 0, 0, 8, func(p *Page) error {
		cp := *p
		cp.Payload = append([]byte(nil), p.Payload...)
		pages = append(pages, &cp)
		return nil
	})
	big := bytes.Repeat([]byte{0xAB}, 64)
	if err := b.AddBytes([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBytes(big); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBytes([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("got %d pages, want 3 (small, oversized, small)", len(pages))
	}
	cr := NewCellReader(pages[1].Payload)
	got, err := cr.Bytes()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized cell round trip: %v", err)
	}
}

func TestCellReaderHostileInput(t *testing.T) {
	// Length prefix pointing past the payload must error, not over-read.
	payload := AppendBytes(nil, []byte("abc"))
	payload[0] = 200 // claim 200 bytes
	cr := NewCellReader(payload)
	if _, err := cr.Bytes(); !errors.Is(err, ErrPayload) {
		t.Fatalf("err = %v, want ErrPayload", err)
	}
	// A uvarint has one accepted spelling: 4 as 0x84 0x00 is refused, and so
	// is a length prefix spelled that way.
	for _, overlong := range [][]byte{{0x84, 0x00}, {0x80, 0x80, 0x00}} {
		if _, err := NewCellReader(overlong).Uvarint(); !errors.Is(err, ErrPayload) {
			t.Fatalf("overlong uvarint %x: err = %v, want ErrPayload", overlong, err)
		}
	}
	if _, err := NewCellReader([]byte{0x83, 0x00, 'a', 'b', 'c'}).Bytes(); !errors.Is(err, ErrPayload) {
		t.Fatalf("overlong length prefix: err = %v, want ErrPayload", err)
	}
	// Raw runs stop at the end of the payload.
	cr = NewCellReader([]byte{1, 2, 0xAC, 0x02})
	if run, err := cr.Next(2); err != nil || !bytes.Equal(run, []byte{1, 2}) {
		t.Fatalf("Next(2) = %v, %v", run, err)
	}
	if _, err := cr.Next(3); !errors.Is(err, ErrPayload) {
		t.Fatalf("Next past the end: err = %v, want ErrPayload", err)
	}
	if v, err := cr.Uvarint(); err != nil || v != 300 || cr.Remaining() != 0 {
		t.Fatalf("Uvarint = %d, %v, %d bytes left", v, err, cr.Remaining())
	}
	if _, err := cr.Next(1); !errors.Is(err, ErrPayload) {
		t.Fatalf("Next at the end: err = %v, want ErrPayload", err)
	}
	// NaN payloads round-trip bit-exactly.
	nan := math.Float32frombits(0x7fc00001)
	enc := AppendFloat32(nil, nan)
	v, err := NewCellReader(enc).Float32()
	if err != nil || math.Float32bits(v) != 0x7fc00001 {
		t.Fatalf("NaN round trip: %v bits=%x", err, math.Float32bits(v))
	}
}
