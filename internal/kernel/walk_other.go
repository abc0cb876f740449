//go:build !amd64

package kernel

func avx512() bool { return false }

func walkAVX512(nodes []node, x []float32, offs *[rowBlockSize]int, n int, root, steps int32, leaf *[rowBlockSize]int32) {
}
