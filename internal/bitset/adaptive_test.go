package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// oracleEqual checks every Cover accessor of a against the map oracle and
// the dense reference built from the same ids.
func oracleEqual(t *testing.T, a *Adaptive, oracle map[int]bool) {
	t.Helper()
	ids := make([]int, 0, len(oracle))
	for id, ok := range oracle {
		if ok {
			ids = append(ids, id)
		}
	}
	dense := FromSorted(ids)
	if got, want := a.Count(), dense.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	got := a.AppendTo(nil)
	want := dense.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendTo lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendTo[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	for _, probe := range []int{-1, 0, 1, 63, 64, 65, ArrayMax, chunkSize - 1, chunkSize, chunkSize + 7, 3 * chunkSize} {
		if a.Contains(probe) != oracle[probe] {
			t.Fatalf("Contains(%d) = %v, want %v", probe, a.Contains(probe), oracle[probe])
		}
	}
}

// kernelEqual checks the fused kernels of a against dense built from the
// same ids, for a given dense operand p and weights w. AndNotSum must be
// bit-identical (exact float equality), not merely close.
func kernelEqual(t *testing.T, a *Adaptive, dense Set, p Set, w []float64) {
	t.Helper()
	if got, want := a.AndCount(p), AndCount(dense, p); got != want {
		t.Fatalf("AndCount = %d, want %d", got, want)
	}
	if got, want := a.AndNotCount(p), AndNotCount(dense, p); got != want {
		t.Fatalf("AndNotCount = %d, want %d", got, want)
	}
	gotSum, gotCount := a.AndNotSum(p, w)
	wantSum, wantCount := AndNotSum(dense, p, w)
	if gotSum != wantSum || gotCount != wantCount {
		t.Fatalf("AndNotSum = (%v, %d), want (%v, %d)", gotSum, gotCount, wantSum, wantCount)
	}
	gotUnion := a.OrInto(New(16))
	wantUnion := Union(New(16), dense)
	if gotUnion.Count() != wantUnion.Count() {
		t.Fatalf("OrInto count = %d, want %d", gotUnion.Count(), wantUnion.Count())
	}
	for i := range wantUnion {
		if i < len(gotUnion) && gotUnion[i] != wantUnion[i] {
			t.Fatalf("OrInto word %d = %x, want %x", i, gotUnion[i], wantUnion[i])
		}
	}
}

// checkShape verifies the structural invariants: strictly ascending chunk
// keys, no empty container, a bitmap exactly when a chunk holds more than
// ArrayMax ids, sorted unique arrays, and a cached cardinality that matches.
func checkShape(t *testing.T, a *Adaptive) {
	t.Helper()
	total := 0
	for i, c := range a.cs {
		if i > 0 && a.keys[i] <= a.keys[i-1] {
			t.Fatalf("chunk keys out of order at %d: %v", i, a.keys)
		}
		n := c.count()
		if n == 0 {
			t.Fatalf("chunk %d is empty", a.keys[i])
		}
		if (c.bitmap != nil) != (n > ArrayMax) {
			t.Fatalf("chunk %d holds %d ids as bitmap=%v", a.keys[i], n, c.bitmap != nil)
		}
		if c.bitmap != nil {
			pop := 0
			for _, w := range c.bitmap {
				pop += bits.OnesCount64(w)
			}
			if pop != c.n {
				t.Fatalf("chunk %d: bitmap popcount %d, cached %d", a.keys[i], pop, c.n)
			}
		}
		for j := 1; j < len(c.array); j++ {
			if c.array[j] <= c.array[j-1] {
				t.Fatalf("chunk %d: array not strictly ascending at %d", a.keys[i], j)
			}
		}
		total += n
	}
	if total != a.n {
		t.Fatalf("cardinality %d, containers hold %d", a.n, total)
	}
}

// randomKernelOperands returns a dense positive set and weights over ids.
func randomKernelOperands(rng *rand.Rand, ids int) (Set, []float64) {
	p := New(ids)
	w := make([]float64, ids)
	for i := range w {
		w[i] = rng.Float64()
		if rng.Intn(3) == 0 {
			p.Add(i)
		}
	}
	return p, w
}

// TestAdaptiveAddAscendingVsOracle drives the ascending append path (the
// shape of index construction and ingest) across chunk boundaries and the
// ArrayMax crossover, mixing in duplicate and out-of-order adds that must
// take the general path.
func TestAdaptiveAddAscendingVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := NewAdaptive()
		oracle := make(map[int]bool)
		id := rng.Intn(64)
		for id < 3*chunkSize {
			a.Add(id)
			oracle[id] = true
			switch rng.Intn(10) {
			case 0: // duplicate of the last id
				a.Add(id)
			case 1: // out of order, below the last id
				back := rng.Intn(id + 1)
				a.Add(back)
				oracle[back] = true
			}
			// Runs of small gaps fill some chunks past ArrayMax; large gaps
			// leave others sparse or skip them entirely.
			if trial%2 == 0 || (id>>chunkBits)%2 == 0 {
				id += 1 + rng.Intn(12)
			} else {
				id += 1 + rng.Intn(4*chunkSize/ArrayMax)
			}
			if rng.Intn(5000) == 0 {
				id += chunkSize
			}
		}
		checkShape(t, a)
		oracleEqual(t, a, oracle)
		p, w := randomKernelOperands(rng, 3*chunkSize)
		kernelEqual(t, a, FromSorted(a.AppendTo(nil)), p, w)
	}
	// Crossing ArrayMax by appends promotes exactly at ArrayMax+1.
	a := NewAdaptive()
	for i := 0; i <= ArrayMax; i++ {
		a.Add(chunkSize + 2*i)
		if arrays, bitmaps := a.Containers(); (i < ArrayMax) != (arrays == 1 && bitmaps == 0) {
			t.Fatalf("after %d appends: containers = (%d arrays, %d bitmaps)", i+1, arrays, bitmaps)
		}
	}
	checkShape(t, a)
}

// TestAdaptiveUnionVsOracle checks Union against the map oracle and the
// dense Or on operands whose per-chunk cardinalities bracket ArrayMax, so
// array ∪ array results land on both sides of the crossover, and checks
// that neither operand changes.
func TestAdaptiveUnionVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cards := []int{0, 1, ArrayMax / 2, ArrayMax - 1, ArrayMax, ArrayMax + 1, 2 * ArrayMax}
	random := func(perChunk [3]int) (*Adaptive, map[int]bool) {
		oracle := make(map[int]bool)
		for chunk, card := range perChunk {
			for n := 0; n < card; {
				id := chunk<<chunkBits + rng.Intn(chunkSize)
				if !oracle[id] {
					oracle[id] = true
					n++
				}
			}
		}
		a := NewAdaptive()
		for id := range oracle {
			a.Add(id)
		}
		return a, oracle
	}
	for trial := 0; trial < 60; trial++ {
		var ca, cb [3]int
		for i := range ca {
			ca[i], cb[i] = cards[rng.Intn(len(cards))], cards[rng.Intn(len(cards))]
		}
		a, oa := random(ca)
		b, ob := random(cb)
		beforeA, beforeB := a.AppendTo(nil), b.AppendTo(nil)
		u := a.Union(b)
		want := make(map[int]bool, len(oa)+len(ob))
		for id := range oa {
			want[id] = true
		}
		for id := range ob {
			want[id] = true
		}
		checkShape(t, u)
		oracleEqual(t, u, want)
		dense := Or(FromSorted(beforeA), FromSorted(beforeB))
		p, w := randomKernelOperands(rng, 3*chunkSize)
		kernelEqual(t, u, dense, p, w)
		if got := a.AppendTo(nil); len(got) != len(beforeA) || a.Count() != len(oa) {
			t.Fatalf("trial %d: Union modified its receiver", trial)
		}
		if got := b.AppendTo(nil); len(got) != len(beforeB) || b.Count() != len(ob) {
			t.Fatalf("trial %d: Union modified its argument", trial)
		}
		// The result is independent of both operands: adding to every chunk
		// of it leaves them unchanged.
		for chunk := 0; chunk < 3; chunk++ {
			id := chunk << chunkBits
			for u.Contains(id) {
				id++
			}
			u.Add(id)
			if a.Contains(id) || b.Contains(id) || a.Count() != len(oa) || b.Count() != len(ob) {
				t.Fatalf("trial %d: Union result shares storage with an operand", trial)
			}
		}
	}
	// Two arrays of ArrayMax/2+1 disjoint ids each promote on union.
	x, y := NewAdaptive(), NewAdaptive()
	for i := 0; i <= ArrayMax/2; i++ {
		x.Add(2 * i)
		y.Add(2*i + 1)
	}
	if arrays, bitmaps := x.Union(y).Containers(); arrays != 0 || bitmaps != 1 {
		t.Fatalf("array ∪ array past ArrayMax: containers = (%d arrays, %d bitmaps), want (0, 1)", arrays, bitmaps)
	}
}

func TestAdaptiveRandomOpsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewAdaptive()
	oracle := make(map[int]bool)
	const universe = 3 * chunkSize
	for step := 0; step < 20000; step++ {
		id := rng.Intn(universe)
		if rng.Intn(3) == 0 {
			a.Remove(id)
			delete(oracle, id)
		} else {
			a.Add(id)
			oracle[id] = true
		}
	}
	oracleEqual(t, a, oracle)

	ids := a.AppendTo(nil)
	dense := FromSorted(ids)
	p := New(universe)
	w := make([]float64, universe)
	for i := range w {
		w[i] = rng.Float64()
		if rng.Intn(4) == 0 {
			p.Add(i)
		}
	}
	kernelEqual(t, a, dense, p, w)
}

func TestAdaptivePromotionDemotionBoundary(t *testing.T) {
	a := NewAdaptive()
	// Fill chunk 1 to exactly ArrayMax: must still be an array container.
	base := chunkSize
	for i := 0; i < ArrayMax; i++ {
		a.Add(base + i*3)
	}
	if arrays, bitmaps := a.Containers(); arrays != 1 || bitmaps != 0 {
		t.Fatalf("at ArrayMax: containers = (%d arrays, %d bitmaps), want (1, 0)", arrays, bitmaps)
	}
	arrayBytes := a.Bytes()
	// One more id crosses the threshold: promotion to a bitmap.
	a.Add(base + ArrayMax*3)
	if arrays, bitmaps := a.Containers(); arrays != 0 || bitmaps != 1 {
		t.Fatalf("past ArrayMax: containers = (%d arrays, %d bitmaps), want (0, 1)", arrays, bitmaps)
	}
	if a.Count() != ArrayMax+1 {
		t.Fatalf("Count = %d, want %d", a.Count(), ArrayMax+1)
	}
	// Removing back to ArrayMax demotes to an array again.
	a.Remove(base + ArrayMax*3)
	if arrays, bitmaps := a.Containers(); arrays != 1 || bitmaps != 0 {
		t.Fatalf("after demotion: containers = (%d arrays, %d bitmaps), want (1, 0)", arrays, bitmaps)
	}
	if a.Bytes() != arrayBytes {
		t.Fatalf("Bytes after round trip = %d, want %d", a.Bytes(), arrayBytes)
	}
	// Idempotent adds/removes at the boundary must not corrupt counts.
	a.Add(base)
	a.Remove(base + 1) // absent (ids are multiples of 3)
	if a.Count() != ArrayMax {
		t.Fatalf("Count after no-ops = %d, want %d", a.Count(), ArrayMax)
	}
	// Drain the container entirely: it must disappear.
	for i := 0; i < ArrayMax; i++ {
		a.Remove(base + i*3)
	}
	if arrays, bitmaps := a.Containers(); arrays != 0 || bitmaps != 0 || a.Count() != 0 {
		t.Fatalf("after drain: containers = (%d, %d), count = %d, want empty", arrays, bitmaps, a.Count())
	}
}

// TestAdaptiveFromSortedCrossover builds sorted id lists whose cardinality
// brackets the crossover and checks AndNotSum bit-identity against dense on
// each, with the p operand shorter, equal and longer than the coverage.
func TestAdaptiveFromSortedCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, card := range []int{0, 1, 63, ArrayMax - 1, ArrayMax, ArrayMax + 1, ArrayMax * 2, chunkSize, chunkSize + ArrayMax} {
		seen := make(map[int]bool, card)
		for len(seen) < card {
			seen[rng.Intn(2*chunkSize)] = true
		}
		ids := make([]int, 0, card)
		for id := range seen {
			ids = append(ids, id)
		}
		// AdaptiveFromSorted requires sorted input.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		a := AdaptiveFromSorted(ids)
		dense := FromSorted(ids)
		if a.Count() != len(ids) {
			t.Fatalf("card %d: Count = %d", card, a.Count())
		}
		for _, pn := range []int{0, chunkSize / 2, 2 * chunkSize, 3 * chunkSize} {
			p := New(pn)
			w := make([]float64, pn)
			for i := 0; i < pn; i++ {
				w[i] = rng.Float64()
				if rng.Intn(2) == 0 {
					p.Add(i)
				}
			}
			kernelEqual(t, a, dense, p, w)
		}
	}
}

func TestAdaptiveClone(t *testing.T) {
	a := AdaptiveFromSorted([]int{1, 2, 3, chunkSize + 5})
	b := a.Clone()
	b.Add(99)
	b.Remove(1)
	if a.Contains(99) || !a.Contains(1) {
		t.Fatal("Clone is not independent")
	}
	if b.Count() != a.Count() {
		t.Fatalf("clone count = %d, original = %d", b.Count(), a.Count())
	}
}

// FuzzAdaptiveOps drives random op sequences from fuzz input against the map
// oracle — adds and removes on two sets, and unions of the second into the
// first — then checks the fused kernels against the dense reference.
func FuzzAdaptiveOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{0x08, 0x00, 0x01, 0x09, 0x10, 0x00, 0x10, 0, 0, 0x00, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := NewAdaptive(), NewAdaptive()
		oracle, oracleB := make(map[int]bool), make(map[int]bool)
		for i := 0; i+2 < len(data); i += 3 {
			if data[i]&0x10 != 0 {
				a = a.Union(b)
				for id := range oracleB {
					oracle[id] = true
				}
				continue
			}
			id := int(data[i+1])<<8 | int(data[i+2])
			// Spread ops across three chunks so both container kinds and the
			// chunk directory get exercised.
			id += int(data[i]&0x03) << chunkBits
			set, m := a, oracle
			if data[i]&0x08 != 0 {
				set, m = b, oracleB
			}
			if data[i]&0x04 != 0 {
				set.Remove(id)
				delete(m, id)
			} else {
				set.Add(id)
				m[id] = true
			}
		}
		checkShape(t, a)
		checkShape(t, b)
		if b.Count() != len(oracleB) {
			t.Fatalf("second set drifted: %d ids vs %d oracle entries", b.Count(), len(oracleB))
		}
		ids := a.AppendTo(nil)
		if len(ids) != len(oracle) {
			t.Fatalf("cardinality drifted: %d ids vs %d oracle entries", len(ids), len(oracle))
		}
		prev := -1
		for _, id := range ids {
			if !oracle[id] {
				t.Fatalf("id %d not in oracle", id)
			}
			if id <= prev {
				t.Fatalf("ids out of order: %d after %d", id, prev)
			}
			prev = id
		}
		dense := FromSorted(ids)
		p := New(4 * chunkSize)
		w := make([]float64, 4*chunkSize)
		for i := range w {
			w[i] = float64(i%97) / 97
			if i%3 == 0 {
				p.Add(i)
			}
		}
		gotSum, gotCount := a.AndNotSum(p, w)
		wantSum, wantCount := AndNotSum(dense, p, w)
		if gotSum != wantSum || gotCount != wantCount {
			t.Fatalf("AndNotSum = (%v, %d), want (%v, %d)", gotSum, gotCount, wantSum, wantCount)
		}
		if a.AndCount(p) != AndCount(dense, p) || a.AndNotCount(p) != AndNotCount(dense, p) {
			t.Fatal("And/AndNot counts diverge from dense")
		}
	})
}
