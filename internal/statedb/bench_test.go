package statedb

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/hyperprov/hyperprov/internal/richquery"
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

// BenchmarkGetDuringApply is the read mix of a loaded peer: parallel readers
// each run the shape of a View — Snapshot, 20 Gets, Release — while one
// goroutine commits 1-key batches against the same 1 k keys. One op is one
// View; allocs/op includes the committer's share, and applies/op says how
// large that share was, since the committer runs flat out beside the readers.
func BenchmarkGetDuringApply(b *testing.B) {
	const keys = 1024
	s := New()
	names := make([]string, keys)
	seed := NewUpdateBatch()
	for i := range names {
		names[i] = fmt.Sprintf("key-%d", i)
		seed.Put(names[i], make([]byte, 256), Version{BlockNum: 1})
	}
	if err := s.ApplyUpdates(seed, Version{BlockNum: 1}); err != nil {
		b.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	var applies atomic.Int64
	go func() {
		defer close(stopped)
		val := make([]byte, 256)
		for block := uint64(2); ; block++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := NewUpdateBatch()
			ver := Version{BlockNum: block}
			batch.Put(names[block%keys], val, ver)
			if err := s.ApplyUpdates(batch, ver); err != nil {
				panic(err)
			}
			applies.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	before := applies.Load()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			sn := s.Snapshot()
			for range 20 {
				if _, ok := sn.Get(names[i%keys]); !ok {
					panic("missing key")
				}
				i += 7
			}
			sn.Release()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(applies.Load()-before)/float64(b.N), "applies/op")
	close(stop)
	<-stopped
}

// provenanceIndexes are the provenance chaincode's four secondary indexes,
// named as a peer names them (the chaincode package imports this one, so
// they are spelled out here).
var provenanceIndexes = []richquery.IndexDef{
	{Name: "provenance.by-owner", Field: "owner"},
	{Name: "provenance.by-display-creator", Field: "creator"},
	{Name: "provenance.by-type", Field: "meta.type"},
	{Name: "provenance.by-time", Field: "ts"},
}

// provenanceDoc is a record shaped like the provenance chaincode's: every
// indexed field present, eight owners, four types.
func provenanceDoc(i int) []byte {
	return fmt.Appendf(nil, `{"key":"r%07d","creator":"u%d","owner":"u%d","meta":{"type":"t%d"},"ts":%d}`,
		i, i%8, i%8, i%4, 1_700_000_000_000+int64(i))
}

// BenchmarkIndexedApply commits 1-document batches, each a new record, into
// a store carrying the provenance chaincode's four indexes over 10 k, 100 k
// and 1 M indexed documents: what index maintenance costs a Post's block as
// the state grows. Each size is seeded once, the indexes built over the seed
// in one go, and reused across the benchmark's runs.
func BenchmarkIndexedApply(b *testing.B) {
	for _, docs := range []int{10_000, 100_000, 1_000_000} {
		var s *Store
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			if s == nil {
				s = seedIndexed(b, docs)
			}
			next, height := s.Len(), s.Height().BlockNum
			batches := make([]*UpdateBatch, b.N)
			for i := range batches {
				batches[i] = NewUpdateBatch()
				batches[i].Put(fmt.Sprintf("r%07d", next+i), provenanceDoc(next+i), Version{BlockNum: height + uint64(i) + 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, batch := range batches {
				if err := s.ApplyUpdates(batch, Version{BlockNum: height + uint64(i) + 1, TxNum: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteQuery runs the two rich-query plans that read documents,
// over 10 k records under the provenance chaincode's four indexes. scan is a
// selector on an unindexed field: every record is read and one matches.
// sorted is the by-type index range sorted on ts, the shape of
// getByTimeRange (an index range whose order needs the documents): the
// quarter of the records the range holds is read, re-checked and sorted.
func BenchmarkExecuteQuery(b *testing.B) {
	s := seedIndexed(b, 10_000)
	for _, bc := range []struct {
		name, query string
		results     int
	}{
		{"scan", `{"selector":{"key":"r0004242"}}`, 1},
		{"sorted", `{"selector":{"meta.type":"t1"},"sort":[{"ts":"asc"}]}`, 2_500},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				q, err := richquery.ParseQuery([]byte(bc.query))
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.ExecuteQuery(q)
				if err != nil || len(res.KVs) != bc.results {
					b.Fatalf("%s: %d results, %v", bc.query, len(res.KVs), err)
				}
			}
		})
	}
}

// BenchmarkRestore restores 10 k provenance-shaped records into a store
// carrying the chaincode's four indexes, each rebuilt from the documents:
// the state half of a restart from a checkpoint without index entries, or
// of a joiner handed a snapshot.
func BenchmarkRestore(b *testing.B) {
	const docs = 10_000
	snap := make(map[string]VersionedValue, docs)
	for i := 0; i < docs; i++ {
		snap[fmt.Sprintf("r%07d", i)] = VersionedValue{Value: provenanceDoc(i), Version: Version{BlockNum: 1, TxNum: uint64(i)}}
	}
	s, err := NewIndexed(provenanceIndexes...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		s.Restore(snap, Version{BlockNum: 1, TxNum: docs})
	}
	if s.Len() != docs {
		b.Fatalf("restored %d records, want %d", s.Len(), docs)
	}
}

func seedIndexed(b *testing.B, docs int) *Store {
	s, err := NewIndexed()
	if err != nil {
		b.Fatal(err)
	}
	seed := NewUpdateBatch()
	for i := 0; i < docs; i++ {
		seed.Put(fmt.Sprintf("r%07d", i), provenanceDoc(i), Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(seed, Version{BlockNum: 1, TxNum: uint64(docs)}); err != nil {
		b.Fatal(err)
	}
	if err := s.DefineIndexes(provenanceIndexes); err != nil {
		b.Fatal(err)
	}
	return s
}
