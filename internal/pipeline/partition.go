// Row partitioning for the scale-out serving tier: a scoring query may carry
// a @partition = 'k/n' parameter that restricts scoring to the k-th of n
// stripes of the scanned rows. Every shard in a scatter-gather deployment
// holds the same (replicated) table, so the partition is purely a
// parallelism device: the router fans one query out as w sub-queries, one
// partition each, and the union of the partitions is exactly the
// unpartitioned row set. The router picks w per query; width 1 is always
// the unpartitioned request (no @partition parameter), never '0/1'.
// Partition k of n owns the 64-row words b with b % n == k of the stable row
// ordinals (the scan position after @limit pushdown, identical on every
// replica), so any shard can serve any partition, the partition pass is a
// word mask, and the router recomputes a stripe's ordinals (Row) locally.
package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"accelscore/internal/kernel"
)

// MaxPartitions bounds the fan-out width a single query may request.
const MaxPartitions = 4096

// Partition identifies one stripe of a query's scanned rows.
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

// RowShard maps a stable row ordinal to its partition index under an n-way
// split: the stripe of its 64-row word, (row/64) mod n.
func RowShard(row, n int) int { return row / kernel.StripeRows % n }

// Keep reports whether the given stable row ordinal belongs to partition p.
func (p Partition) Keep(row int) bool { return RowShard(row, p.Count) == p.Index }

// Rows is how many of scanned rows partition p (Count >= 1) holds.
func (p Partition) Rows(scanned int) int {
	words, tail := scanned/kernel.StripeRows, scanned%kernel.StripeRows
	rows := (words - p.Index + p.Count - 1) / p.Count * kernel.StripeRows
	if tail > 0 && words%p.Count == p.Index {
		rows += tail
	}
	return rows
}

// Row is the scan ordinal of the i-th row partition p (Count >= 1) holds.
func (p Partition) Row(i int) int {
	return (i/kernel.StripeRows*p.Count+p.Index)*kernel.StripeRows + i%kernel.StripeRows
}

// FNV-1a 64-bit constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

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
