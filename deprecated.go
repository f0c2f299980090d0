package sdquery

// Names left over from the in-process sharded index, which SDIndex replaced.
// Only the perfbench harness still calls them; they go away with the next
// change to that harness.

// ShardedIndex is SDIndex.
//
// Deprecated: use SDIndex. Kept only because perfbench still names it.
type ShardedIndex = SDIndex

// NewShardedIndex is NewSDIndex with WithWorkers(0) placed first.
//
// Deprecated: use NewSDIndex with WithWorkers. Kept only because perfbench
// still calls it.
func NewShardedIndex(data [][]float64, roles []Role, opts ...SDOption) (*SDIndex, error) {
	return NewSDIndex(data, roles, append([]SDOption{WithWorkers(0)}, opts...)...)
}

// NewShardedIndexWithIDs is NewSDIndexWithIDs with WithWorkers(0) placed
// first.
//
// Deprecated: use NewSDIndexWithIDs with WithWorkers. Kept only because
// perfbench still calls it.
func NewShardedIndexWithIDs(data [][]float64, ids []int, roles []Role, opts ...SDOption) (*SDIndex, error) {
	return NewSDIndexWithIDs(data, ids, roles, append([]SDOption{WithWorkers(0)}, opts...)...)
}

// WithShards has no effect.
//
// Deprecated: an index is one engine. Kept only because perfbench still
// passes it.
func WithShards(int) SDOption { return func(*sdConfig) {} }

// Shards returns 1.
//
// Deprecated: an index is one engine. Kept only because perfbench still
// calls it.
func (s *SDIndex) Shards() int { return 1 }
