package kernel

import (
	"math/bits"
	"slices"
	"testing"
)

// forEachVote calls fn with every vote vector of classes entries that casts
// at most total votes. fn must not keep v.
func forEachVote(classes, total int, fn func(v []int32)) {
	v := make([]int32, classes)
	var fill func(j, left int)
	fill = func(j, left int) {
		if j == classes {
			fn(v)
			return
		}
		for k := 0; k <= left; k++ {
			v[j] = int32(k)
			fill(j+1, left-k)
		}
		v[j] = 0
	}
	fill(0, total)
}

// TestVoteBoundIsExact: for 1–4 classes, every vote vector of at most 8 cast
// votes and rem 0–8, voteGap(v, rem) ≤ 0 exactly when every way of casting
// the rem votes leaves argmax, lowest index winning ties, where it is. When
// it is ≤ 0, casting any fewer also leaves it there — what lets decided rows
// pad a lock-step group. And one more vote lowers a positive gap by at most
// 2, which is what lets decide wait ⌈gap/2⌉ trees before the next check.
func TestVoteBoundIsExact(t *testing.T) {
	decided, undecided := 0, 0
	for classes := 1; classes <= 4; classes++ {
		forEachVote(classes, 8, func(v []int32) {
			best := argmax(v)
			for rem := 0; rem <= 8; rem++ {
				gap := voteGap(v, rem)
				fixed, fixedPartly := true, true
				sum := make([]int32, classes)
				forEachVote(classes, rem, func(cast []int32) {
					n := int32(0)
					for j := range sum {
						sum[j] = v[j] + cast[j]
						n += cast[j]
					}
					if argmax(sum) != best {
						if int(n) == rem {
							fixed = false
						} else {
							fixedPartly = false
						}
					}
				})
				if (gap <= 0) != fixed {
					t.Fatalf("votes %v, %d to cast: gap %d, but argmax fixed is %v", v, rem, gap, fixed)
				}
				if gap <= 0 && !fixedPartly {
					t.Fatalf("votes %v, %d to cast: decided (gap %d), yet casting fewer moves argmax", v, rem, gap)
				}
				if gap > rem {
					t.Fatalf("votes %v, %d to cast: gap %d above rem", v, rem, gap)
				}
				if gap <= 0 {
					decided++
				} else {
					undecided++
				}
				if gap <= 0 || rem == 0 {
					continue
				}
				for j := range v {
					v[j]++
					if next := voteGap(v, rem-1); next < gap-2 {
						t.Fatalf("votes %v, %d to cast: gap %d, one vote for %d later %d", v, rem, gap, j, next)
					}
					v[j]--
				}
			}
		})
	}
	if decided == 0 || undecided == 0 {
		t.Fatalf("%d decided and %d undecided cases: one side of the bound went untested", decided, undecided)
	}
}

// TestFirstCheckIsTheEarliestDecidableTree: a vote forest of at least
// exitMinTrees trees is first checked after the first tree at which a row
// can be decided — a unanimous vote for class 0, the most decided any row
// can be, is decided there and not one tree earlier — and a smaller forest
// or a boosted ensemble never is.
func TestFirstCheckIsTheEarliestDecidableTree(t *testing.T) {
	for trees := 1; trees <= 130; trees++ {
		for _, boosted := range []bool{false, true} {
			c := &Compiled{depth: make([]int32, trees), boosted: boosted}
			first := c.firstCheck()
			if boosted || trees < exitMinTrees {
				if first != trees {
					t.Fatalf("%d trees, boosted %v: first check after tree %d, want never (%d)", trees, boosted, first, trees)
				}
				continue
			}
			earliest := 0
			for voteGap([]int32{int32(earliest + 1), 0}, trees-earliest-1) > 0 {
				earliest++
			}
			if first != earliest {
				t.Fatalf("%d trees: first check after tree %d, but a unanimous row is decided first after tree %d", trees, first, earliest)
			}
		}
	}
}

// TestMarginGapIsVoteGap: the closed form a two-class forest checks its one
// margin with is voteGap itself, for every two-class vote vector of at most
// 64 votes and every rem from 0 to 64 — so a margin row is checked, exits
// and pads a group exactly where its vote vector would.
func TestMarginGapIsVoteGap(t *testing.T) {
	forEachVote(2, 64, func(v []int32) {
		for rem := 0; rem <= 64; rem++ {
			if got, want := marginGap(int(v[1]-v[0]), rem), voteGap(v, rem); got != want {
				t.Fatalf("votes %v, %d to cast: margin gap %d, vote gap %d", v, rem, got, want)
			}
		}
	})
}

// voteGap is the oracle a tally's gap is checked against: how far votes
// v, with rem still to cast, are from decided — 0 once no casting of them
// moves argmax(v) (lowest index winning ties), else the most another class
// can finish ahead, a tie it wins counting 1.
func voteGap(v []int32, rem int) int {
	best, gap := argmax(v), 0
	for j, n := range v {
		if g := int(n) + rem - int(v[best]); j < best {
			gap = max(gap, g+1)
		} else if j > best {
			gap = max(gap, g)
		}
	}
	return gap
}

// TestPackedGapIsVoteGap: for 1–5 classes, every vote vector of at most 12
// votes and every rem from 0 to 12, readTally reads voteGap as the gap,
// max(0, chal+rem-lead), and argmax as the leader off a tally packing the
// vector into one word with the narrowest field width that holds its votes,
// and off one of a word per class, as a forest too wide for one word keeps.
// So a row is checked, exits, pads a group and is predicted exactly where
// its vote vector would be.
func TestPackedGapIsVoteGap(t *testing.T) {
	for classes := 1; classes <= 5; classes++ {
		forEachVote(classes, 12, func(v []int32) {
			narrow := uint(max(1, bits.Len(uint(slices.Max(v)))))
			one, wide := make([]uint64, 1), make([]uint64, classes)
			for j, n := range v {
				one[0] |= uint64(n) << (uint(j) * narrow)
				wide[j] = uint64(n)
			}
			for _, tally := range []struct {
				t []uint64
				w uint
			}{{one, narrow}, {wide, 64}} {
				best, lead, chal := readTally(tally.t, classes, tally.w, 1<<tally.w-1)
				if best != argmax(v) {
					t.Fatalf("votes %v in %d-bit fields: tally leader %d, argmax %d", v, tally.w, best, argmax(v))
				}
				for rem := 0; rem <= 12; rem++ {
					if gap, want := max(0, chal+rem-lead), voteGap(v, rem); gap != want {
						t.Fatalf("votes %v in %d-bit fields, %d to cast: tally gap %d, vote gap %d", v, tally.w, rem, gap, want)
					}
				}
			}
		})
	}
}
