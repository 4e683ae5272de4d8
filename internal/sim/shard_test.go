package sim

import (
	"sync/atomic"
	"testing"
)

func TestShardRunnerCoversAllShards(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 37
		var hits [37]atomic.Int64
		ShardRunner{Workers: workers}.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestShardRunnerZeroShards(t *testing.T) {
	ran := false
	ShardRunner{}.Run(0, func(int) { ran = true })
	ShardRunner{}.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("shard function ran for n <= 0")
	}
}

// A panicking shard reaches the caller at any worker count, after the
// other workers have stopped.
func TestShardRunnerRaisesPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		got := func() (p any) {
			defer func() { p = recover() }()
			ShardRunner{Workers: workers}.Run(16, func(i int) {
				if i == 5 {
					panic("shard 5")
				}
			})
			return nil
		}()
		if got != "shard 5" {
			t.Errorf("workers=%d: recovered %v, want the shard's panic", workers, got)
		}
	}
}
