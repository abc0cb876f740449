package model

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
)

func trainIris(t testing.TB, trees, depth int, seed uint64) *forest.Forest {
	t.Helper()
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees:  trees,
		Tree:      forest.TrainConfig{MaxDepth: depth},
		Seed:      seed,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMarshalRoundTrip(t *testing.T) {
	f := trainIris(t, 8, 10, 1)
	blob, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFeatures != f.NumFeatures || got.NumClasses != f.NumClasses ||
		len(got.Trees) != len(f.Trees) || got.Kind != f.Kind {
		t.Fatalf("round-trip schema mismatch: %+v", got)
	}
	if got.FeatureNames[2] != "petal_length" || got.ClassNames[1] != "versicolor" {
		t.Fatalf("names lost: %v %v", got.FeatureNames, got.ClassNames)
	}
	// Predictions identical on every row.
	d := dataset.Iris()
	for i := 0; i < d.NumRecords(); i++ {
		if f.PredictClass(d.Row(i)) != got.PredictClass(d.Row(i)) {
			t.Fatalf("prediction mismatch on row %d after round-trip", i)
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	d := dataset.Iris()
	check := func(seed uint8, treesRaw, depthRaw uint8) bool {
		trees := int(treesRaw)%6 + 1
		depth := int(depthRaw)%8 + 2
		f, err := forest.Train(d, forest.ForestConfig{
			NumTrees:  trees,
			Tree:      forest.TrainConfig{MaxDepth: depth},
			Seed:      uint64(seed),
			Bootstrap: true,
		})
		if err != nil {
			return false
		}
		blob, err := Marshal(f)
		if err != nil {
			return false
		}
		got, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		for i := 0; i < d.NumRecords(); i += 7 {
			if f.PredictClass(d.Row(i)) != got.PredictClass(d.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := trainIris(t, 2, 4, 2)
	blob, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte anywhere in the body: the CRC must catch it.
	for _, pos := range []int{0, 5, len(blob) / 2, len(blob) - 5} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0xFF
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
	// Truncation.
	if _, err := Unmarshal(blob[:len(blob)-10]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
}

// TestUnmarshalRejectsStructuralCorruption: a blob whose checksum is right
// but whose tree is not — a split on a feature the model does not have — is
// refused here, at the only door into the compiled-model cache, which is why
// scoring a cached model does not walk it again.
func TestUnmarshalRejectsStructuralCorruption(t *testing.T) {
	const mark = 1234.5 // a threshold no other field's bytes spell
	f := &forest.Forest{NumFeatures: 4, NumClasses: 3, Trees: []*forest.Tree{{
		NumFeatures: 4, NumClasses: 3,
		Root: &forest.Node{Feature: 2, Threshold: mark,
			Left: &forest.Node{Class: 0}, Right: &forest.Node{Class: 1}},
	}}}
	blob, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(blob, binary.LittleEndian.AppendUint32(nil, math.Float32bits(mark)))
	if at < 4 {
		t.Fatal("threshold not found in the blob")
	}
	binary.LittleEndian.PutUint32(blob[at-4:], 9) // the split's feature index
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(body):], crc32.ChecksumIEEE(body))
	if _, err := Unmarshal(blob); err == nil || !strings.Contains(err.Error(), "split feature 9 out of range") {
		t.Fatalf("err = %v, want the structural check to refuse the blob", err)
	}
}

// TestUnmarshalRefusesForgedNameCount: a name count the blob's remaining
// bytes cannot hold (each name costs at least its 2 length bytes) is refused
// before anything is sized from it. The forged blob is 35 bytes with a valid
// checksum and claims 1<<20 feature names.
func TestUnmarshalRefusesForgedNameCount(t *testing.T) {
	blob := append([]byte(nil), Magic[:]...)
	blob = binary.LittleEndian.AppendUint16(blob, Version)
	blob = append(blob, byte(forest.Classifier))
	blob = binary.LittleEndian.AppendUint64(blob, 0) // base score
	for _, v := range []uint32{1, 1, 1, 1 << 20} {   // features, classes, trees, names
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	blob = binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(blob)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "model: ") {
		t.Fatalf("err = %v, want a model: error for the forged name count", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a %d-byte blob allocated %d bytes", len(blob), grew)
	}
}

func TestUnmarshalRejectsBadMagic(t *testing.T) {
	f := trainIris(t, 1, 3, 3)
	blob, _ := Marshal(f)
	blob[0] = 'Z'
	// Re-fix the CRC so only the magic check can fail... simpler: corrupt
	// magic means CRC fails first, which is also a rejection. Either way
	// the blob must be refused.
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBlobSizeScalesWithModel(t *testing.T) {
	small, _ := Marshal(trainIris(t, 1, 4, 4))
	large, _ := Marshal(trainIris(t, 16, 10, 4))
	if len(large) <= len(small) {
		t.Fatalf("blob sizes: 16-tree %d <= 1-tree %d", len(large), len(small))
	}
}

// densePredict walks every tree's node words the way an FPGA PE does and
// majority-votes.
func densePredict(d *Dense, row []float32) int {
	votes := make([]int, d.NumClasses)
	for t := 0; t < d.Trees; t++ {
		votes[WalkNodes(d.TreeSlice(t), row)]++
	}
	return forest.Argmax(votes)
}

func TestCompileDenseAndPredict(t *testing.T) {
	f := trainIris(t, 8, 10, 5)
	dn, err := CompileDense(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dn.WordsPerTree != 1024 {
		t.Fatalf("WordsPerTree = %d, want 2^10", dn.WordsPerTree)
	}
	if len(dn.Nodes) != 8*1024 {
		t.Fatalf("%d node words, want 8 trees x 1024", len(dn.Nodes))
	}
	d := dataset.Iris()
	for i := 0; i < d.NumRecords(); i++ {
		row := d.Row(i)
		if got, want := densePredict(dn, row), f.PredictClass(row); got != want {
			t.Fatalf("dense predict %d != forest %d on row %d", got, want, i)
		}
	}
}

func TestCompileDensePerTreeAgreement(t *testing.T) {
	f := trainIris(t, 4, 8, 6)
	dn, err := CompileDense(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Iris()
	for ti, tr := range f.Trees {
		for i := 0; i < d.NumRecords(); i += 3 {
			row := d.Row(i)
			if got, want := WalkNodes(dn.TreeSlice(ti), row), tr.PredictClass(row); got != want {
				t.Fatalf("tree %d row %d: dense %d != pointer %d", ti, i, got, want)
			}
		}
	}
}

func TestCompileDenseRejectsDeepTrees(t *testing.T) {
	f := trainIris(t, 1, 10, 7)
	depth := f.Trees[0].Depth()
	if depth < 2 {
		t.Skip("tree too shallow to test rejection")
	}
	if _, err := CompileDense(f, depth-1); err == nil {
		t.Fatal("tree deeper than layout levels accepted")
	}
}

func TestCompileDenseRejectsRegressor(t *testing.T) {
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2, Kind: forest.Regressor, Tree: forest.TrainConfig{MaxDepth: 4}, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileDense(f, 10); err == nil {
		t.Fatal("regressor accepted by dense compiler")
	}
}

func TestCompileDenseLevelBounds(t *testing.T) {
	f := trainIris(t, 1, 3, 9)
	if _, err := CompileDense(f, 0); err == nil {
		t.Fatal("levels=0 accepted")
	}
	if _, err := CompileDense(f, 31); err == nil {
		t.Fatal("levels=31 accepted")
	}
}

func TestLeafRefEncoding(t *testing.T) {
	for c := 0; c < 100; c++ {
		ref := EncodeLeafRef(c)
		if ref >= 0 {
			t.Fatalf("leaf ref for class %d is non-negative: %d", c, ref)
		}
		if got := DecodeLeafRef(ref); got != c {
			t.Fatalf("leaf ref round-trip: %d -> %d -> %d", c, ref, got)
		}
	}
}

func TestDenseHiggsAgreement(t *testing.T) {
	d := dataset.Higgs(2000, 3)
	f, err := forest.Train(d, forest.ForestConfig{
		NumTrees:  6,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      10,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := CompileDense(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumRecords(); i += 17 {
		row := d.Row(i)
		if densePredict(dn, row) != f.PredictClass(row) {
			t.Fatalf("dense/forest disagreement on HIGGS row %d", i)
		}
	}
}

func TestTreeSlice(t *testing.T) {
	f := trainIris(t, 3, 6, 11)
	dn, err := CompileDense(f, 6)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		s := dn.TreeSlice(ti)
		if len(s) != 64 {
			t.Fatalf("TreeSlice(%d) length %d, want 64", ti, len(s))
		}
	}
}

func BenchmarkMarshal128Trees(b *testing.B) {
	f := trainIris(b, 128, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal128Trees(b *testing.B) {
	blob, err := Marshal(trainIris(b, 128, 10, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDensePredict(b *testing.B) {
	f := trainIris(b, 128, 10, 1)
	dn, err := CompileDense(f, 10)
	if err != nil {
		b.Fatal(err)
	}
	row := dataset.Iris().Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		densePredict(dn, row)
	}
}
