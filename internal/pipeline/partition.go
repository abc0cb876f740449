// Row partitioning for the scale-out serving tier: a scoring query may carry
// a @partition = 'k/n' parameter that restricts scoring to the k-th of n
// hash partitions of the scanned rows. Every shard in a scatter-gather
// deployment holds the same (replicated) table, so the partition is purely a
// parallelism device: the router fans one query out as w sub-queries, one
// partition each, and the union of the partitions is exactly the
// unpartitioned row set. The router picks w per query; width 1 is always
// the unpartitioned request (no @partition parameter), never '0/1'. The
// assignment hashes the stable row ordinal (the scan position after @limit
// pushdown, identical on every replica), so the router can recompute it
// locally and any shard can serve any partition.
package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"accelscore/internal/kernel"
)

// MaxPartitions bounds the fan-out width a single query may request.
const MaxPartitions = 4096

// Partition identifies one hash partition of a query's scanned rows.
// The zero value means "no partitioning": every row is scored.
type Partition struct {
	// Index is the partition ordinal in [0, Count).
	Index int
	// Count is the total number of partitions (0 = unpartitioned).
	Count int
}

// Active reports whether the request is restricted to one partition.
// Count == 1 still counts as active ('0/1' is a spec a caller may send; it
// selects every row and pays the partition pass), but the router never sends
// it: a sub-query that is the whole query goes out with the zero Partition.
func (p Partition) Active() bool { return p.Count > 0 }

// String renders the canonical 'k/n' spec ("" when unpartitioned).
func (p Partition) String() string {
	if !p.Active() {
		return ""
	}
	return strconv.Itoa(p.Index) + "/" + strconv.Itoa(p.Count)
}

// ParsePartition parses a 'k/n' partition spec.
func ParsePartition(s string) (Partition, error) {
	k, n, ok := strings.Cut(s, "/")
	if !ok {
		return Partition{}, fmt.Errorf("pipeline: @partition must be 'k/n', got %q", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(k))
	if err != nil {
		return Partition{}, fmt.Errorf("pipeline: @partition index: %v", err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Partition{}, fmt.Errorf("pipeline: @partition count: %v", err)
	}
	if cnt < 1 || cnt > MaxPartitions {
		return Partition{}, fmt.Errorf("pipeline: @partition count must be in [1, %d], got %d", MaxPartitions, cnt)
	}
	if idx < 0 || idx >= cnt {
		return Partition{}, fmt.Errorf("pipeline: @partition index %d outside [0, %d)", idx, cnt)
	}
	return Partition{Index: idx, Count: cnt}, nil
}

// FNV-1a 64-bit constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// RowShard maps a stable row ordinal to its partition index under an n-way
// split: FNV-1a over the little-endian ordinal bytes, mod n. Exported so the
// router (and tests) can recompute the assignment without a selection.
func RowShard(row, n int) int {
	h := uint64(fnvOffset64)
	v := uint64(row)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return int(h % uint64(n))
}

// TenantShard maps a tenant key to a shard index: FNV-1a over the key bytes.
// Tenant-affinity routing sends the whole query to one shard instead of
// splitting it, trading parallelism for cache locality.
func TenantShard(tenant string, n int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// Keep reports whether the given stable row ordinal belongs to partition p.
func (p Partition) Keep(row int) bool {
	return RowShard(row, p.Count) == p.Index
}

// partitionSelection narrows base (the pushed-down WHERE selection, nil =
// all rows) to the rows of one hash partition of the query's scan ordinals.
func partitionSelection(base *kernel.Selection, part Partition, rows int) *kernel.Selection {
	return kernel.SelectionFromFunc(rows, func(row int) bool {
		return (base == nil || base.Selected(row)) && part.Keep(row)
	})
}
