package statedb

import (
	"fmt"
	"testing"
)

func BenchmarkApplyUpdates(b *testing.B) {
	s := New()
	val := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := NewUpdateBatch()
		ver := Version{BlockNum: uint64(i + 1)}
		batch.Put(fmt.Sprintf("key-%d", i%1024), val, ver)
		if err := s.ApplyUpdates(batch, ver); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := New()
	batch := NewUpdateBatch()
	for i := 0; i < 1024; i++ {
		batch.Put(fmt.Sprintf("key-%d", i), make([]byte, 256), Version{BlockNum: 1})
	}
	if err := s.ApplyUpdates(batch, Version{BlockNum: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(fmt.Sprintf("key-%d", i%1024)); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkRangeScan reads a fixed 100-key range out of 1 k and 100 k
// resident keys: the ordered key index makes a scan cost what it returns,
// not what the store holds, so the two sizes read alike.
func BenchmarkRangeScan(b *testing.B) {
	for _, keys := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := New()
			batch := NewUpdateBatch()
			for i := 0; i < keys; i++ {
				batch.Put(fmt.Sprintf("key-%06d", i), make([]byte, 64), Version{BlockNum: 1})
			}
			if err := s.ApplyUpdates(batch, Version{BlockNum: 1}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := Collect(s.GetRange("key-000100", "key-000200")); len(got) != 100 {
					b.Fatalf("range = %d", len(got))
				}
			}
		})
	}
}
