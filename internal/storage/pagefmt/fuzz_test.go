package pagefmt

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzPageDecode feeds arbitrary bytes to the page decoder. The invariants:
// never panic, never silently accept corrupted data (a successful decode
// must re-encode to the identical bytes), and failures are always one of the
// package's typed errors.
func FuzzPageDecode(f *testing.F) {
	// Valid pages of every column type as seeds.
	fp := Page{Type: Float32, ColIndex: 1, StartRow: 5, TableVersion: 3}
	for i := 0; i < 6; i++ {
		fp.Payload = AppendFloat32(fp.Payload, float32(i)*1.5)
	}
	fp.Rows = 6
	f.Add(encode(&fp))

	ip := Page{Type: Int64, Rows: 3}
	for i := int64(-1); i <= 1; i++ {
		ip.Payload = AppendInt64(ip.Payload, i*1e12)
	}
	f.Add(encode(&ip))

	tp := Page{Type: Text, Rows: 2}
	tp.Payload = AppendString(tp.Payload, "hello")
	tp.Payload = AppendString(tp.Payload, "")
	f.Add(encode(&tp))

	bp := Page{Type: Blob, Rows: 1}
	bp.Payload = AppendBytes(bp.Payload, bytes.Repeat([]byte{0xEE}, 100))
	f.Add(encode(&bp))

	f.Add([]byte("ACPG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, consumed, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrHeader) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		// Round trip: a page the decoder accepts must re-encode bit-exactly.
		if got := encode(p); !bytes.Equal(got, data[:consumed]) {
			t.Fatalf("re-encode differs from accepted input")
		}
		// Every cell must decode without panicking or over-reading.
		cr := NewCellReader(p.Payload)
		for i := uint32(0); i < p.Rows; i++ {
			var cellErr error
			switch p.Type {
			case Float32:
				_, cellErr = cr.Float32()
			case Int64:
				_, cellErr = cr.Int64()
			default:
				_, cellErr = cr.Bytes()
			}
			if cellErr != nil && !errors.Is(cellErr, ErrPayload) {
				t.Fatalf("untyped cell error: %v", cellErr)
			}
			if cellErr != nil {
				break
			}
		}
	})
}

// FuzzFrameDecode exercises the frame armor the WAL and snapshot headers
// share.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("payload")))
	f.Add(AppendFrame(nil, nil))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, consumed, err := DecodeFrame(data, 1<<20)
		if err != nil {
			if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrFrameChecksum) && !errors.Is(err, ErrFrameTruncated) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		if consumed > len(data) || len(payload) != consumed-FrameOverhead {
			t.Fatalf("frame accounting: consumed=%d payload=%d", consumed, len(payload))
		}
	})
}
