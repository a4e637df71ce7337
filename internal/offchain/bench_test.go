package offchain

import (
	"io"
	"testing"

	"github.com/hyperprov/hyperprov/internal/network"
)

func BenchmarkChecksum1MiB(b *testing.B) {
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		_ = Checksum(data)
	}
}

func BenchmarkMemStorePutGet(b *testing.B) {
	s := NewMemStore()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		ref, err := s.Put(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemStoreOpen256KiB is the object server's get side alone: Open
// of a stored store_payload-sized object, read out.
func BenchmarkMemStoreOpen256KiB(b *testing.B) {
	s := NewMemStore()
	data := make([]byte, 256<<10)
	ref, err := s.Put(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obj, _, err := s.Open(ref)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, obj); err != nil {
			b.Fatal(err)
		}
		obj.Close()
	}
}

func BenchmarkRemoteStoreRoundTrip(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", NewMemStore(), network.LinkShape{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	data := make([]byte, 16<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		ref, err := client.Put(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Get(ref); err != nil {
			b.Fatal(err)
		}
	}
}
