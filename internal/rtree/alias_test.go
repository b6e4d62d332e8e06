package rtree

import (
	"math/rand"
	"reflect"
	"testing"

	"stpq/internal/storage"
)

// cloneNode deep-copies a node, keyword bits included, so a later
// comparison detects any write into the original.
func cloneNode(n *Node) *Node {
	c := &Node{Leaf: n.Leaf, Entries: make([]Entry, len(n.Entries))}
	for i, e := range n.Entries {
		e.Keywords = e.Keywords.Clone()
		c.Entries[i] = e
	}
	return c
}

// leafPages returns the page ids of every leaf of the tree.
func leafPages(t *testing.T, tr *Tree) []storage.PageID {
	t.Helper()
	var out []storage.PageID
	stack := []storage.PageID{tr.Root()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			out = append(out, id)
			continue
		}
		for _, e := range n.Entries {
			stack = append(stack, e.Child)
		}
	}
	return out
}

// Reading leaves through a WithExclude view filters a copy: the node the
// canonical tree caches for the same page stays complete, and canonical
// reads after the view's keep returning every item.
func TestWithExcludeLeavesCachedNodeComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	if err := tr.BulkLoad(randomItems(rng, 300, 16), hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	leaves := leafPages(t, tr)
	before := make(map[storage.PageID]*Node, len(leaves))
	dead := map[int64]struct{}{}
	for _, id := range leaves {
		n, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = cloneNode(n)
		dead[n.Entries[0].ItemID] = struct{}{} // one tombstone per leaf
	}
	view := tr.WithExclude(dead)
	for _, id := range leaves {
		filtered, err := view.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(filtered.Entries), len(before[id].Entries)-1; got != want {
			t.Fatalf("leaf %d through the view: %d entries, want %d", id, got, want)
		}
		canonical, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonical, before[id]) {
			t.Fatalf("leaf %d: canonical node changed after a filtered read", id)
		}
	}
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != tr.Len() {
		t.Fatalf("canonical All after view reads: %d items, want %d", len(all), tr.Len())
	}
	// A leaf without tombstones is served as the shared node itself.
	clean := tr.WithExclude(map[int64]struct{}{-1: {}})
	a, err := clean.Node(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Node(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("a leaf with no tombstoned item should not be copied")
	}
}

// Insert and Delete edit private copies: every *Node handed out before a
// mutation still holds exactly what it held, while the tree itself moves
// on. CheckInvariants holds throughout the mixed sequence.
func TestNodesUnchangedByMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, 500, 16)
	if err := tr.BulkLoad(items[:300], hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	type held struct {
		node, snapshot *Node
	}
	var kept []held
	grab := func() {
		for _, id := range leafPages(t, tr) {
			n, err := tr.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, held{node: n, snapshot: cloneNode(n)})
		}
		root, err := tr.Node(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, held{node: root, snapshot: cloneNode(root)})
	}
	live := append([]Item(nil), items[:300]...)
	next := 300
	for round := 0; round < 10; round++ {
		grab()
		for j := 0; j < 20; j++ {
			if rng.Intn(2) == 0 && next < len(items) {
				if err := tr.Insert(items[next]); err != nil {
					t.Fatal(err)
				}
				live = append(live, items[next])
				next++
				continue
			}
			k := rng.Intn(len(live))
			found, err := tr.Delete(live[k].ID, live[k].Location)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("item %d not found for delete", live[k].ID)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, h := range kept {
			if !reflect.DeepEqual(h.node, h.snapshot) {
				t.Fatalf("round %d: node %d handed out earlier was modified by a mutation", round, i)
			}
		}
	}
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(live) || tr.Len() != len(live) {
		t.Fatalf("after mutations: All=%d Len=%d, want %d", len(all), tr.Len(), len(live))
	}
}
