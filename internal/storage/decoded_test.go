package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// decodedPage is the test decoder's cached value: a private copy of the
// page bytes plus a count of how many times the page was decoded.
type decodedPage struct {
	data []byte
}

func copyDecoder(calls *int) Decoder {
	return func(data []byte) (any, error) {
		if calls != nil {
			*calls++
		}
		return &decodedPage{data: append([]byte(nil), data...)}, nil
	}
}

// newFilledDisk allocates n pages, each filled with its own id byte.
func newFilledDisk(t *testing.T, n int) (*MemDisk, []PageID) {
	t.Helper()
	d := NewMemDisk(64)
	ids := make([]PageID, n)
	for i := range ids {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return d, ids
}

// GetDecoded must charge exactly what Get charges: replaying one access
// trace through both paths yields identical pool-wide Stats and identical
// Session counts, for a single-stripe and a striped pool.
func TestGetDecodedMatchesGetAccounting(t *testing.T) {
	d, ids := newFilledDisk(t, 40)
	rng := rand.New(rand.NewSource(11))
	trace := make([]PageID, 2000)
	for i := range trace {
		// Skewed so the trace mixes hits, misses and evictions.
		if rng.Intn(3) == 0 {
			trace[i] = ids[rng.Intn(len(ids))]
		} else {
			trace[i] = ids[rng.Intn(8)]
		}
	}
	for _, stripes := range []int{1, 4} {
		bytesPool := NewStripedBufferPool(d, 12, stripes)
		nodePool := NewStripedBufferPool(d, 12, stripes)
		var bytesAcct, nodeAcct Stats
		bs, ns := bytesPool.Session(&bytesAcct), nodePool.Session(&nodeAcct)
		dec := copyDecoder(nil)
		for _, id := range trace {
			data, err := bs.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ns.GetDecoded(id, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v.(*decodedPage).data, data) {
				t.Fatalf("stripes=%d page %d: decoded content differs from Get", stripes, id)
			}
		}
		if got, want := nodePool.Stats(), bytesPool.Stats(); got != want {
			t.Errorf("stripes=%d: pool stats GetDecoded %+v, Get %+v", stripes, got, want)
		}
		if nodeAcct != bytesAcct {
			t.Errorf("stripes=%d: session stats GetDecoded %+v, Get %+v", stripes, nodeAcct, bytesAcct)
		}
		if nodeAcct.Evictions == 0 || nodeAcct.PhysicalReads == nodeAcct.LogicalReads {
			t.Errorf("stripes=%d: trace exercised no evictions or no hits: %+v", stripes, nodeAcct)
		}
	}
}

// A hit serves the cached value without decoding again, and each miss
// decodes exactly once.
func TestGetDecodedDecodesOncePerResidency(t *testing.T) {
	d, ids := newFilledDisk(t, 3)
	p := NewBufferPool(d, 2)
	calls := 0
	dec := copyDecoder(&calls)
	first, err := p.GetDecoded(ids[0], dec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.GetDecoded(ids[0], dec)
	if err != nil {
		t.Fatal(err)
	}
	if first != again || calls != 1 {
		t.Fatalf("hit re-decoded: calls=%d same=%v", calls, first == again)
	}
	// Evict ids[0] (capacity 2), then read it again: a new residency
	// decodes once more.
	for _, id := range ids[1:] {
		if _, err := p.GetDecoded(id, dec); err != nil {
			t.Fatal(err)
		}
	}
	if p.Contains(ids[0]) {
		t.Fatal("page 0 should have been evicted")
	}
	if _, err := p.GetDecoded(ids[0], dec); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("decode calls = %d, want 4 (one per miss)", calls)
	}
	// Get on a frame that keeps only the decoded value still returns the
	// page bytes, as a hit.
	before := p.Stats()
	data, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatalf("Get after GetDecoded returned %v", data[:4])
	}
	if delta := p.Stats().Sub(before); delta.LogicalReads != 1 || delta.PhysicalReads != 0 {
		t.Fatalf("Get on a decoded frame charged %+v, want one hit", delta)
	}
}

// WriteThrough drops the cached decoded value, so the next GetDecoded
// decodes the new page image.
func TestWriteThroughInvalidatesDecoded(t *testing.T) {
	d, ids := newFilledDisk(t, 1)
	p := NewBufferPool(d, 4)
	calls := 0
	dec := copyDecoder(&calls)
	old, err := p.GetDecoded(ids[0], dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteThrough(ids[0], []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	v, err := p.GetDecoded(ids[0], dec)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*decodedPage).data
	if v == old || got[0] != 9 || got[3] != 0 || calls != 2 {
		t.Fatalf("after WriteThrough: same=%v data=%v calls=%d", v == old, got[:5], calls)
	}
	if delta := p.Stats().Sub(before); delta.PhysicalReads != 0 {
		t.Fatalf("re-decode after WriteThrough charged a physical read: %+v", delta)
	}
	if old.(*decodedPage).data[0] != 1 {
		t.Fatal("WriteThrough modified a previously returned value")
	}
	// Get sees the new bytes too.
	data, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 9 {
		t.Fatalf("Get after WriteThrough = %v", data[:4])
	}
}

// A zero-capacity pool caches nothing: every GetDecoded is a physical read
// and a fresh decode.
func TestGetDecodedZeroCapacity(t *testing.T) {
	d, ids := newFilledDisk(t, 1)
	p := NewBufferPool(d, 0)
	calls := 0
	dec := copyDecoder(&calls)
	for i := 0; i < 3; i++ {
		if _, err := p.GetDecoded(ids[0], dec); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.PhysicalReads != 3 || calls != 3 || p.Len() != 0 {
		t.Fatalf("zero-capacity pool: stats %+v, decodes %d, len %d", st, calls, p.Len())
	}
}

// The GetDecoded hit path — the read every warm node visit takes — must
// not allocate.
func TestAllocsGetDecodedHit(t *testing.T) {
	d, ids := newFilledDisk(t, 1)
	p := NewStripedBufferPool(d, 8, 4)
	dec := copyDecoder(nil)
	if _, err := p.GetDecoded(ids[0], dec); err != nil { // prime the cache
		t.Fatal(err)
	}
	var acct Stats
	sess := p.Session(&acct)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.GetDecoded(ids[0], dec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GetDecoded hit path allocs/op = %v, want 0", allocs)
	}
	if acct.PhysicalReads != 0 || acct.LogicalReads == 0 {
		t.Errorf("hit path accounting: %+v", acct)
	}
}

// Concurrent readers share cached values; run under -race. Every reader
// sees the page's own content, and the pool-wide logical count equals the
// total number of reads.
func TestGetDecodedConcurrentHits(t *testing.T) {
	d, ids := newFilledDisk(t, 16)
	p := NewStripedBufferPool(d, 8, 4)
	dec := copyDecoder(nil)
	const workers, reads = 4, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var acct Stats
			sess := p.Session(&acct)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				j := rng.Intn(len(ids))
				v, err := sess.GetDecoded(ids[j], dec)
				if err != nil {
					errs <- err
					return
				}
				if v.(*decodedPage).data[0] != byte(j+1) {
					t.Errorf("page %d decoded as %d", j, v.(*decodedPage).data[0])
					return
				}
			}
			if acct.LogicalReads != reads {
				t.Errorf("session logical reads %d, want %d", acct.LogicalReads, reads)
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.Stats(); st.LogicalReads != workers*reads {
		t.Fatalf("pool logical reads %d, want %d", st.LogicalReads, workers*reads)
	}
}
