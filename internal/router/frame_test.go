package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"accelscore/internal/storage/pagefmt"
)

// frameCases are the Result shapes the tier puts on the wire. Empty columns
// are nil, as a JSON decode leaves them.
func frameCases() map[string]*Result {
	timeline := []WireSpan{
		{Name: "model pre-processing", Kind: 0, NS: 2_113_000},
		{Name: "data transfer", Kind: 1, NS: 48_100},
		{Name: "scoring", Kind: 2, NS: 131_274_379},
	}
	detail := []WireSpan{{Name: "tree traversal", Kind: 2, NS: 131_000_000}}
	// Partition 1 of 2 over 25k rows: every other ordinal, roughly.
	var rows, preds []int
	for row := 1; row < 25000; row += 1 + row%3 {
		rows = append(rows, row)
		preds = append(preds, row%3)
	}
	dense := make([]int, 4000)
	for i := range dense {
		dense[i] = (i * 7) % 3
	}
	wide := make([]int, 300)
	for i := range wide {
		wide[i] = i * 5 // classes up to 1495: more than a byte
	}
	return map[string]*Result{
		"partitioned": {
			ShardID: "shard-1", Backend: "CPU_SKLearn", Predictions: preds, ScoredRows: rows,
			RowsScanned: 25000, RowsScored: len(rows), CacheHit: true, TraceID: "q-000042",
			Timeline: timeline, ScoringDetail: detail,
		},
		"filtered": {
			ShardID: "shard-0", Backend: "FPGA", Predictions: []int{2, 0, 1, 1}, ScoredRows: []int{0, 17, 18, 24999},
			RowsScanned: 25000, RowsScored: 4, Fused: true, Retries: 2,
			FallbackFrom: "GPU_RAPIDS", FallbackReason: "device busy", Timeline: timeline,
		},
		"plain": {
			ShardID: "shard-0", Backend: "CPU_ONNX", Predictions: dense,
			RowsScanned: len(dense), RowsScored: len(dense), CacheHit: true, Timeline: timeline,
		},
		"count": {
			ShardID: "shard-0", Backend: "CPU_SKLearn", ClassCounts: []int64{12345},
			RowsScanned: 20000, RowsScored: 12345, Fused: true, Timeline: timeline,
		},
		"group_count": {
			ShardID: "shard-1", Backend: "CPU_SKLearn", ClassCounts: []int64{5012, 0, 4988},
			RowsScanned: 20000, RowsScored: 10000, CacheHit: true, Fused: true, Timeline: timeline,
		},
		"empty": {ShardID: "shard-1", Backend: "CPU_SKLearn", RowsScanned: 150},
		"wide": {
			ShardID: "shard-0", Backend: "CPU_SKLearn", Predictions: wide,
			RowsScanned: len(wide), RowsScored: len(wide),
		},
		"error": {Error: "exec: admission queue full: rejected", Code: CodeRejected},
	}
}

func mustEncode(t testing.TB, r *Result) []byte {
	t.Helper()
	frame, err := EncodeFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestFrameRoundTrip: encode, decode, deep-equal; the size hint bounds the
// frame from above; and the frame carries exactly what the JSON form does.
func TestFrameRoundTrip(t *testing.T) {
	for name, want := range frameCases() {
		t.Run(name, func(t *testing.T) {
			frame := mustEncode(t, want)
			max, err := maxClass(want.Predictions)
			if err != nil {
				t.Fatal(err)
			}
			if hint := frameSizeHint(want, max); len(frame) > hint {
				t.Fatalf("frame is %d bytes, size hint %d", len(frame), hint)
			}
			got, err := DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
			}
			text, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON := new(Result)
			if err := json.Unmarshal(text, viaJSON); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, viaJSON) {
				t.Fatalf("frame and JSON decode differently:\nframe %+v\n json %+v", got, viaJSON)
			}
			t.Logf("%d rows: frame %d bytes, JSON %d bytes", len(want.Predictions), len(frame), len(text))
		})
	}
}

// TestFrameDecodeDoesNotAlias: the router reads replies into a pooled
// buffer, so a decoded Result must survive the buffer's reuse.
func TestFrameDecodeDoesNotAlias(t *testing.T) {
	want := frameCases()["filtered"]
	frame := mustEncode(t, want)
	got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded result changed with its buffer: %+v", got)
	}
}

// TestFrameEncodeRefusesWhatItCannotSpell: ordinals that do not ascend
// strictly, and negative classes, never reach the wire.
func TestFrameEncodeRefusesWhatItCannotSpell(t *testing.T) {
	for name, r := range map[string]*Result{
		"descending": {ScoredRows: []int{4, 2}, Predictions: []int{0, 0}},
		"duplicate":  {ScoredRows: []int{4, 4}, Predictions: []int{0, 0}},
		"negative":   {ScoredRows: []int{-1}, Predictions: []int{0}},
		"class":      {Predictions: []int{1, -2}},
	} {
		if _, err := EncodeFrame(r); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// reframe wraps a hand-edited payload in a frame with a valid CRC, so a
// test reaches the payload checks behind it.
func reframe(payload []byte) []byte { return pagefmt.AppendFrame(nil, payload) }

// corruptFrames are frames the decoder must refuse, with the typed error
// each fails with.
func corruptFrames(t testing.TB) map[string]struct {
	frame []byte
	want  error
} {
	// One ordinal (3, spelled as delta 4) and one prediction: the payload
	// ends count=1 delta=4 count=1 class=1 count=0.
	small := mustEncode(t, &Result{ShardID: "s", ScoredRows: []int{3}, Predictions: []int{1}, RowsScanned: 9, RowsScored: 1})
	payload := func() []byte { return append([]byte(nil), small[pagefmt.FrameOverhead:]...) }
	if tail := payload()[len(payload())-5:]; !bytes.Equal(tail, []byte{1, 4, 1, 1, 0}) {
		t.Fatalf("unexpected payload tail %v", tail)
	}
	edit := func(fromEnd int, b ...byte) []byte {
		p := payload()
		at := len(p) - fromEnd
		return reframe(append(append(p[:at:at], b...), p[at+1:]...))
	}

	flipped := append([]byte(nil), small...)
	flipped[5] ^= 0x40
	oversized := append([]byte(nil), small...)
	binary.LittleEndian.PutUint32(oversized, MaxFrameBytes+1)
	version := payload()
	version[0] = 9
	flags := payload()
	flags[1] |= 0x80
	wideFlag := payload()
	wideFlag[1] |= flagWidePredicts

	return map[string]struct {
		frame []byte
		want  error
	}{
		"flipped CRC":        {flipped, pagefmt.ErrFrameChecksum},
		"truncated":          {small[:len(small)-3], pagefmt.ErrFrameTruncated},
		"short header":       {small[:5], pagefmt.ErrFrameTruncated},
		"oversized length":   {oversized, pagefmt.ErrFrame},
		"bytes after frame":  {append(append([]byte(nil), small...), 0), pagefmt.ErrFrame},
		"zero delta":         {edit(4, 0), pagefmt.ErrPayload},
		"overlong uvarint":   {edit(4, 0x84, 0x00), pagefmt.ErrPayload},
		"forged count":       {edit(3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F), pagefmt.ErrPayload},
		"bytes after column": {reframe(append(payload(), 0)), pagefmt.ErrPayload},
		"missing column":     {reframe(payload()[:len(payload())-1]), pagefmt.ErrPayload},
		"unknown version":    {reframe(version), pagefmt.ErrPayload},
		"unknown flag":       {reframe(flags), pagefmt.ErrPayload},
		"needless uvarints":  {reframe(wideFlag), pagefmt.ErrPayload},
		"empty payload":      {reframe(nil), pagefmt.ErrPayload},
	}
}

func TestFrameDecodeCorruption(t *testing.T) {
	for name, c := range corruptFrames(t) {
		res, err := DecodeFrame(c.frame)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v (result %+v), want %v", name, err, res, c.want)
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to the /score frame decoder, once as
// they are and once behind a valid length and CRC so that mutation reaches
// the column checks. It must never panic; what it accepts must be the one
// spelling of its Result — it re-encodes to the identical bytes — so no
// corruption decodes silently; a refusal is one of pagefmt's typed errors;
// the decoded columns are no larger than the bytes that spelled them
// allow, nor the frame larger than its size hint.
func FuzzWireDecode(f *testing.F) {
	for _, r := range frameCases() {
		frame := mustEncode(f, r)
		f.Add(frame)
		f.Add(frame[pagefmt.FrameOverhead:])
	}
	for _, c := range corruptFrames(f) {
		f.Add(c.frame)
		if len(c.frame) > pagefmt.FrameOverhead {
			f.Add(c.frame[pagefmt.FrameOverhead:])
		}
	}
	check := func(t *testing.T, data []byte) {
		res, err := DecodeFrame(data)
		if err != nil {
			for _, typed := range []error{pagefmt.ErrFrame, pagefmt.ErrFrameChecksum, pagefmt.ErrFrameTruncated, pagefmt.ErrPayload} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if cells := len(res.ScoredRows) + len(res.Predictions) + len(res.ClassCounts) + len(res.Timeline) + len(res.ScoringDetail); cells > len(data) {
			t.Fatalf("%d cells decoded from %d bytes", cells, len(data))
		}
		again, err := EncodeFrame(res)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from accepted input:\n in %x\nout %x", data, again)
		}
		if max, _ := maxClass(res.Predictions); len(again) > frameSizeHint(res, max) {
			t.Fatalf("frame is %d bytes, size hint %d", len(again), frameSizeHint(res, max))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		check(t, reframe(data))
	})
}

// TestFrameSmallerThanJSON pins the point of the format on the shape that
// motivated it: one partition's share of a full scan.
func TestFrameSmallerThanJSON(t *testing.T) {
	r := frameCases()["partitioned"]
	text, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if frame := mustEncode(t, r); 3*len(frame) > len(text) {
		t.Fatalf("frame %d bytes, JSON %d: expected at most a third", len(frame), len(text))
	}
}
