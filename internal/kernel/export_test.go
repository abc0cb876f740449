package kernel

import "testing"

// EachWalk runs fn in one subtest per walk walkTree has, "avx512" and "go",
// with that walk selected; a host that cannot run the AVX-512 walk logs so
// and skips its subtest.
func EachWalk(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{true, false} {
		t.Run(walkNames[on], func(t *testing.T) {
			if on && !avx512() {
				t.Skip("this CPU or OS cannot run the AVX-512 walk")
			}
			defer func(was bool) { simd = was }(simd)
			simd = on
			fn(t)
		})
	}
}
