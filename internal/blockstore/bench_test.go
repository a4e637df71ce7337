package blockstore

import (
	"fmt"
	"testing"
)

func BenchmarkBlockAppend(b *testing.B) {
	s := NewStore()
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := Envelope{TxID: fmt.Sprintf("tx-%d", i), Function: "set", Args: [][]byte{payload}}
		blk := NewBlock(uint64(i), s.LastHash(), []Envelope{env})
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChain(b *testing.B) {
	s := NewStore()
	for i := 0; i < 128; i++ {
		env := Envelope{TxID: fmt.Sprintf("tx-%d", i), Function: "set", Args: [][]byte{make([]byte, 512)}}
		blk := NewBlock(uint64(i), s.LastHash(), []Envelope{env})
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.VerifyChain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataHash(b *testing.B) {
	envs := make([]Envelope, 10)
	for i := range envs {
		envs[i] = Envelope{TxID: fmt.Sprintf("tx-%d", i), Args: [][]byte{make([]byte, 4096)}}
	}
	b.SetBytes(10 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDataHash(envs)
	}
}
