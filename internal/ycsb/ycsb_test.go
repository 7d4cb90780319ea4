package ycsb

import (
	"math/rand"
	"testing"
)

func TestWorkloadMixes(t *testing.T) {
	cases := []struct {
		kind      Workload
		wantKinds map[OpKind]float64 // expected fraction, +-0.05
	}{
		{WorkloadA, map[OpKind]float64{OpRead: 0.5, OpUpdate: 0.5}},
		{WorkloadB, map[OpKind]float64{OpRead: 0.95, OpUpdate: 0.05}},
		{WorkloadC, map[OpKind]float64{OpRead: 1.0}},
		{WorkloadD, map[OpKind]float64{OpRead: 0.95, OpInsert: 0.05}},
		{WorkloadE, map[OpKind]float64{OpScan: 0.95, OpInsert: 0.05}},
		{WorkloadF, map[OpKind]float64{OpRead: 0.5, OpRMW: 0.5}},
	}
	const n = 20000
	for _, tc := range cases {
		g, err := NewGenerator(tc.kind, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[OpKind]int)
		for i := 0; i < n; i++ {
			op := g.Next()
			counts[op.Kind]++
			if op.Kind != OpInsert && (op.Key < 0 || op.Key >= g.Records()) {
				t.Fatalf("workload %c: key %d out of range", tc.kind, op.Key)
			}
			if op.Kind == OpScan && (op.ScanLen < 1 || op.ScanLen > 100) {
				t.Fatalf("scan len %d", op.ScanLen)
			}
		}
		for k, want := range tc.wantKinds {
			got := float64(counts[k]) / n
			if got < want-0.05 || got > want+0.05 {
				t.Errorf("workload %c: %s fraction %.3f, want %.2f", tc.kind, k, got, want)
			}
		}
		for k := range counts {
			if _, ok := tc.wantKinds[k]; !ok {
				t.Errorf("workload %c: unexpected op kind %s", tc.kind, k)
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipfian(rng, 10000, DefaultTheta)
	counts := make(map[int64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 10000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be much more popular than the median rank.
	if counts[0] < n/100 {
		t.Fatalf("rank 0 drew only %d of %d", counts[0], n)
	}
	if counts[0] <= counts[5000]*10 {
		t.Fatalf("distribution not skewed: top %d vs mid %d", counts[0], counts[5000])
	}
}

func TestInsertBaseDisjoint(t *testing.T) {
	g1, _ := NewGenerator(WorkloadD, 100, 1)
	g2, _ := NewGenerator(WorkloadD, 100, 2)
	g1.SetInsertBase(1 << 40)
	g2.SetInsertBase(2 << 40)
	keys := make(map[int64]bool)
	for i := 0; i < 5000; i++ {
		for _, g := range []*Generator{g1, g2} {
			op := g.Next()
			if op.Kind == OpInsert {
				if keys[op.Key] {
					t.Fatalf("insert key collision: %d", op.Key)
				}
				keys[op.Key] = true
			}
		}
	}
}

func TestValueDeterministic(t *testing.T) {
	a, b := Value(42), Value(42)
	if string(a) != string(b) {
		t.Fatal("Value not deterministic")
	}
	if len(a) != ValueSize {
		t.Fatalf("value size %d", len(a))
	}
	if string(Value(1)) == string(Value(2)) {
		t.Fatal("distinct records share payload")
	}
}

func TestKeyNameSorted(t *testing.T) {
	if !(KeyName(1) < KeyName(2) && KeyName(99) < KeyName(100)) {
		t.Fatal("KeyName not order-preserving")
	}
}
