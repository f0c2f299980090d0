package sdquery

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInsertWithIDConcurrentDuplicates races retries of the same
// caller-assigned IDs from several goroutines, the shape of a router
// retrying an ambiguous write. For every ID exactly one call must succeed
// and every other must return ErrIDExists — the sentinel the serving
// layer's idempotent-ack path keys on — never any other error.
func TestInsertWithIDConcurrentDuplicates(t *testing.T) {
	roles := []Role{Repulsive, Attractive}
	idx, err := NewSDIndex(tieProneData(16, len(roles), 1), roles)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	const goroutines, ids = 4, 20_000
	base := idx.Total()
	wins := make([]atomic.Int32, ids)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				err := idx.InsertWithID(base+i, []float64{0.5, 0.5})
				switch {
				case err == nil:
					wins[i].Add(1)
				case !errors.Is(err, ErrIDExists):
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("duplicate InsertWithID returned %v, want nil or ErrIDExists", err)
	}
	for i := range wins {
		if n := wins[i].Load(); n != 1 {
			t.Fatalf("id %d: %d successful inserts, want exactly 1", base+i, n)
		}
	}
	if got, want := idx.Total(), base+ids; got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
}
