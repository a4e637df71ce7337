package rwset

import (
	"fmt"
	"testing"

	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Benchmarks for the two rwset operations on the commit hot path: the
// stage-1 deserialization the pipeline fans across workers, and the
// stage-2 MVCC check it runs sequentially.

func benchRWSet(reads, writes int) *ReadWriteSet {
	rws := &ReadWriteSet{}
	for i := 0; i < reads; i++ {
		rws.Reads = append(rws.Reads, Read{Key: fmt.Sprintf("r-%04d", i)})
	}
	for i := 0; i < writes; i++ {
		rws.Writes = append(rws.Writes, Write{
			Key:   fmt.Sprintf("w-%04d", i),
			Value: []byte(`{"key":"w","checksum":"sha256:abc","ts":1700000000000}`),
		})
	}
	return rws
}

func BenchmarkUnmarshal(b *testing.B) {
	raw := benchRWSet(2, 2).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	state := statedb.New()
	batch := statedb.NewUpdateBatch()
	for i := 0; i < 1000; i++ {
		batch.Put(fmt.Sprintf("r-%04d", i), []byte("v"), statedb.Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := state.ApplyUpdates(batch, statedb.Version{BlockNum: 1, TxNum: 1000}); err != nil {
		b.Fatal(err)
	}
	rws := benchRWSet(2, 2)
	ver := statedb.Version{BlockNum: 1, TxNum: 0}
	rws.Reads[0].Version = &ver
	ver1 := statedb.Version{BlockNum: 1, TxNum: 1}
	rws.Reads[1].Version = &ver1
	blockWrites := make(map[string]bool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(rws, state, blockWrites); err != nil {
			b.Fatal(err)
		}
	}
}
