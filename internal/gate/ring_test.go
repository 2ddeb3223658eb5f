package gate

import (
	"fmt"
	"testing"
)

func TestRingOrderDistinctAndStable(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"}, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("model-%d", i)
		order := r.Order(key, 0)
		if len(order) != 3 {
			t.Fatalf("Order(%q) = %v, want 3 distinct replicas", key, order)
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("Order(%q) repeats %q: %v", key, n, order)
			}
			seen[n] = true
		}
		// Same key, fresh ring, shuffled construction order: identical route.
		again := NewRing([]string{"r3", "r1", "r2"}, 64).Order(key, 0)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("Order(%q) not construction-order invariant: %v vs %v", key, order, again)
			}
		}
	}
}

// TestRingPick checks the primary/secondary pick: the first two
// distinct owners, and only the primary on a single-replica ring.
func TestRingPick(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 32)
	if pick := r.Order("some-model", 2); len(pick) != 2 || pick[0] == pick[1] {
		t.Fatalf("Order(key, 2) = %v, want two distinct replicas", pick)
	}
	single := NewRing([]string{"only"}, 32)
	if pick := single.Order("some-model", 2); len(pick) != 1 || pick[0] != "only" {
		t.Fatalf("single-replica Order(key, 2) = %v, want [only]", pick)
	}
}

// TestRingBalance checks the virtual nodes spread keys within sane
// bounds: no replica of a 4-node ring owns more than half of 1000 keys.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3", "r4"}, 0) // DefaultVNodes
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[r.Order(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	for name, c := range counts {
		if c == 0 || c > 500 {
			t.Fatalf("replica %q owns %d/1000 keys: %v", name, c, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d replicas own keys: %v", len(counts), counts)
	}
}

// TestRingMinimalMovement verifies the consistent-hashing property:
// removing one replica of four remaps only the keys it owned.
func TestRingMinimalMovement(t *testing.T) {
	before := NewRing([]string{"r1", "r2", "r3", "r4"}, 0)
	after := NewRing([]string{"r1", "r2", "r4"}, 0)
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		was := before.Order(key, 1)[0]
		now := after.Order(key, 1)[0]
		if was != "r3" && was != now {
			t.Fatalf("key %q moved %s→%s though its owner survived", key, was, now)
		}
		if was == "r3" {
			moved++
		}
	}
	if moved == 0 || moved > 600 {
		t.Fatalf("removing 1 of 4 replicas moved %d/1000 keys", moved)
	}
}
