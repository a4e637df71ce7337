package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

// auditStore is a content-addressed object-server backing that counts the
// SHA-256 passes it makes, so a test can say how often a payload is hashed
// instead of timing it. With lax set, Open skips its integrity check — a
// storage node that does not verify what it serves.
type auditStore struct {
	mu               sync.Mutex
	objects          map[string][]byte
	hashes, verifies int
	lax              bool
}

func (s *auditStore) Write(r io.Reader, size int64) (string, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return "", err
	}
	key := offchain.Checksum(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hashes++
	s.objects[key] = data
	return "audit://" + key, nil
}

func (s *auditStore) Open(ref string) (io.ReadCloser, int64, error) {
	key, ok := strings.CutPrefix(ref, "audit://")
	s.mu.Lock()
	defer s.mu.Unlock()
	data, found := s.objects[key]
	if !ok || !found {
		return nil, 0, fmt.Errorf("%w: %q", offchain.ErrNotFound, ref)
	}
	if !s.lax {
		s.verifies++
		if err := offchain.VerifyChecksum(data, key); err != nil {
			return nil, 0, err
		}
	}
	return io.NopCloser(bytes.NewReader(bytes.Clone(data))), int64(len(data)), nil
}

// corrupt flips a byte of every stored object.
func (s *auditStore) corrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, data := range s.objects {
		data[len(data)/2] ^= 0xFF
	}
}

// passes returns how often the store has hashed on put and verified on get.
func (s *auditStore) passes() (hashes, verifies int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hashes, s.verifies
}

func (s *auditStore) setLax() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lax = true
}

// newRemoteClient is a HyperProv client whose off-chain store is a
// RemoteStore talking to a loopback object server over backing.
func newRemoteClient(t testing.TB, backing offchain.Backing) (*Client, *offchain.RemoteStore) {
	t.Helper()
	srv, err := offchain.NewServer("127.0.0.1:0", backing, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	remote, err := offchain.NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return newClientWith(t, remote), remote
}

// TestRemoteStoreDataHashPasses pins the four SHA-256 passes of one
// StoreData + GetData over the remote store — counted, not timed — and that
// the wire itself adds none and removes none:
//
//  1. the client hashes the payload before the put (the on-chain checksum),
//  2. the store hashes it on put (its content address),
//  3. the store verifies it on get,
//  4. core.GetData verifies what arrived against the on-chain checksum.
func TestRemoteStoreDataHashPasses(t *testing.T) {
	backing := &auditStore{objects: make(map[string][]byte)}
	c, remote := newRemoteClient(t, backing)
	payload := bytes.Repeat([]byte("sensor-frame-"), 20000) // ≈ 254 KiB

	if _, err := c.StoreData("frame", payload, PostOptions{}); err != nil {
		t.Fatalf("StoreData: %v", err)
	}
	rec, err := c.Get("frame")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checksum != offchain.Checksum(payload) { // pass 1
		t.Errorf("on-chain checksum = %q, want the payload's", rec.Checksum)
	}
	if hashes, verifies := backing.passes(); hashes != 1 || verifies != 0 { // pass 2
		t.Errorf("after StoreData the store hashed %d× and verified %d×, want 1 and 0", hashes, verifies)
	}
	got, _, err := c.GetData("frame")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetData: %d bytes, %v", len(got), err)
	}
	if hashes, verifies := backing.passes(); hashes != 1 || verifies != 1 { // pass 3
		t.Errorf("after GetData the store hashed %d× and verified %d×, want 1 and 1", hashes, verifies)
	}

	// Pass 4 is core's own: take the store's check away and corrupt the
	// object at rest. The wire does not hash — RemoteStore hands the damaged
	// bytes over as they are — and core.GetData is what catches them.
	backing.setLax()
	backing.corrupt()
	damaged, err := remote.Get(rec.Location)
	if err != nil || bytes.Equal(damaged, payload) || len(damaged) != len(payload) {
		t.Fatalf("RemoteStore.Get of a damaged object from a lax store: %d bytes, %v; want the damaged bytes and no error", len(damaged), err)
	}
	if _, _, err := c.GetData("frame"); !errors.Is(err, ErrTampered) {
		t.Errorf("GetData of a damaged object from a lax store = %v, want ErrTampered", err)
	}
}

// TestRemoteTamperDetectionEndToEnd: the paper's tamper scenario with the
// payload behind the object server. The serving store's check fails, the
// failure crosses the wire as a status byte, the client maps it back to
// ErrChecksumMismatch, and core reports ErrTampered.
func TestRemoteTamperDetectionEndToEnd(t *testing.T) {
	backing := offchain.NewMemStore()
	c, remote := newRemoteClient(t, backing)
	if _, err := c.StoreData("critical", []byte("original measurement"), PostOptions{}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Get("critical")
	if err != nil {
		t.Fatal(err)
	}
	if err := backing.Corrupt(rec.Location[strings.Index(rec.Location, "mem://"):]); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Get(rec.Location); !errors.Is(err, offchain.ErrChecksumMismatch) {
		t.Errorf("RemoteStore.Get of tampered payload = %v, want ErrChecksumMismatch", err)
	}
	if _, _, err := c.GetData("critical"); !errors.Is(err, ErrTampered) {
		t.Errorf("GetData of tampered payload = %v, want ErrTampered", err)
	}
}

// BenchmarkStoreGetRealClock is the profiling handle on the paper's headline
// operation: StoreData then GetData of 256 KiB through a loopback
// offchain.Server over a MemStore, on four peers with one-transaction blocks
// and device.NopClock (no modeled charge, only real work) — the shape of
// benchmark/'s store_payload workload, reachable by `go test
// -cpuprofile/-memprofile` (`make profile-store`). It exists to show where
// time and bytes go. Gains are judged by benchmark/ (BENCHMARK.json), never
// by this number.
func BenchmarkStoreGetRealClock(b *testing.B) {
	const size = 256 << 10
	c, _ := newRemoteClient(b, offchain.NewMemStore())
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 131)
	}
	storeGet := func(i int) {
		// 64 distinct payloads: the content-addressed MemStore behind the
		// server holds 16 MiB however long the benchmark runs.
		data[0] = byte(i & 63)
		key := fmt.Sprintf("payload-%d", i)
		if _, err := c.StoreData(key, data, PostOptions{}); err != nil {
			b.Fatal(err)
		}
		if got, _, err := c.GetData(key); err != nil || len(got) != size {
			b.Fatalf("GetData: %d bytes, %v", len(got), err)
		}
	}
	storeGet(-1) // warm: chaincode, identity caches, buffer pool
	b.SetBytes(2 * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storeGet(i)
	}
}
