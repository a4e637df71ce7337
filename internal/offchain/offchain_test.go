package offchain

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hyperprov/hyperprov/internal/network"
)

func TestChecksumFormat(t *testing.T) {
	cs := Checksum([]byte("hello"))
	if !strings.HasPrefix(cs, "sha256:") || len(cs) != 7+64 {
		t.Errorf("Checksum = %q", cs)
	}
	if Checksum([]byte("hello")) != cs {
		t.Error("Checksum not deterministic")
	}
	if Checksum([]byte("world")) == cs {
		t.Error("different data, same checksum")
	}
}

func TestVerifyChecksum(t *testing.T) {
	data := []byte("payload")
	if err := VerifyChecksum(data, Checksum(data)); err != nil {
		t.Errorf("VerifyChecksum clean: %v", err)
	}
	if err := VerifyChecksum([]byte("tampered"), Checksum(data)); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("VerifyChecksum tampered = %v, want ErrChecksumMismatch", err)
	}
}

// storeSuite runs the contract tests against any Store implementation.
func storeSuite(t *testing.T, s Store) {
	t.Helper()
	data := []byte("the quick brown fox")
	ref, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if ref == "" {
		t.Fatal("empty ref")
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Get = %q, want %q", got, data)
	}
	// Idempotent put (content addressed).
	ref2, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if ref2 != ref {
		t.Errorf("second Put ref = %q, want %q", ref2, ref)
	}
	// Unknown ref.
	if _, err := s.Get(strings.Replace(ref, "a", "b", 1) + "x"); err == nil {
		t.Error("Get of unknown ref succeeded")
	}
	// Malformed ref.
	if _, err := s.Get("bogus-scheme://zzz"); err == nil {
		t.Error("Get of malformed ref succeeded")
	}
	// Empty payload round-trips.
	refEmpty, err := s.Put(nil)
	if err != nil {
		t.Fatalf("Put(nil): %v", err)
	}
	if got, err := s.Get(refEmpty); err != nil || len(got) != 0 {
		t.Errorf("Get(empty) = %q, %v", got, err)
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	storeSuite(t, s)
	if s.Len() == 0 {
		t.Error("Len = 0 after puts")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	data := []byte("original")
	ref, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutation must not corrupt the store
	got, err := s.Get(ref)
	if err != nil {
		t.Fatalf("Get after caller mutation: %v", err)
	}
	if got[0] != 'o' {
		t.Error("store aliased caller slice")
	}
	got[0] = 'Y' // returned slice mutation must not corrupt the store
	if again, err := s.Get(ref); err != nil || again[0] != 'o' {
		t.Errorf("store aliased returned slice: %q %v", again, err)
	}
}

func TestMemStoreTamperDetection(t *testing.T) {
	s := NewMemStore()
	ref, err := s.Put([]byte("sensor reading 42"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(ref); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(ref)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("Get of corrupted object = %v, want ErrChecksumMismatch", err)
	}
}

func TestDirStore(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeSuite(t, s)
}

func TestDirStoreTamperDetection(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("data item"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk.
	key := strings.TrimPrefix(ref, "file://")
	if err := os.WriteFile(s.path(key), []byte("evil bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("Get corrupted file = %v, want ErrChecksumMismatch", err)
	}
}

// TestRefsNameOnlyContentAddresses: a ref names an object by "sha256:" and
// 64 lowercase hex digits, nothing else. A DirStore turns the digits into a
// file name under its root, so a ref that walks out of the root must be
// refused with ErrBadRef before any open — locally, and through the object
// server, which hands a remote client's ref to its store as it came. Such a
// ref must neither read a file outside the root (ErrChecksumMismatch) nor
// tell whether one exists (ErrNotFound).
func TestRefsNameOnlyContentAddresses(t *testing.T) {
	top := t.TempDir()
	if err := os.WriteFile(filepath.Join(top, "secret.txt"), []byte("not an object"), 0o600); err != nil {
		t.Fatal(err)
	}
	dir, err := NewDirStore(filepath.Join(top, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", dir, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	mem := NewMemStore()

	valid := Checksum([]byte("x"))
	for _, key := range []string{
		"../secret.txt",
		"../missing.txt",
		"sha256:../secret.txt",
		"sha256:../missing.txt",
		strings.TrimPrefix(valid, "sha256:"),
		strings.ToUpper(valid),
		"sha256:" + strings.ToUpper(valid[7:]),
		valid[:len(valid)-1],
		valid + "0",
		valid + "/x",
	} {
		if _, err := dir.Get("file://" + key); !errors.Is(err, ErrBadRef) {
			t.Errorf("DirStore.Get(file://%s) = %v, want ErrBadRef", key, err)
		}
		if _, _, err := dir.Open("file://" + key); !errors.Is(err, ErrBadRef) {
			t.Errorf("DirStore.Open(file://%s) = %v, want ErrBadRef", key, err)
		}
		if _, err := client.Get("remote://" + srv.Addr() + "/file://" + key); !errors.Is(err, ErrBadRef) {
			t.Errorf("remote Get of file://%s = %v, want ErrBadRef", key, err)
		}
		if _, err := mem.Get("mem://" + key); !errors.Is(err, ErrBadRef) {
			t.Errorf("MemStore.Get(mem://%s) = %v, want ErrBadRef", key, err)
		}
		if err := mem.Corrupt("mem://" + key); !errors.Is(err, ErrBadRef) {
			t.Errorf("MemStore.Corrupt(mem://%s) = %v, want ErrBadRef", key, err)
		}
	}
	// A well-formed ref still reaches the store.
	if _, err := client.Get("remote://" + srv.Addr() + "/file://" + valid); !errors.Is(err, ErrNotFound) {
		t.Errorf("remote Get of a missing object = %v, want ErrNotFound", err)
	}
}

// Property: checksum round-trips for random payloads on MemStore.
func TestQuickMemRoundTrip(t *testing.T) {
	s := NewMemStore()
	f := func(data []byte) bool {
		ref, err := s.Put(data)
		if err != nil {
			return false
		}
		got, err := s.Get(ref)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChecksumCollisionResistanceSample(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		cs := Checksum([]byte(fmt.Sprintf("payload-%d", i)))
		if seen[cs] {
			t.Fatalf("collision at %d", i)
		}
		seen[cs] = true
	}
}

// A crash mid-Put must never leave a truncated blob reachable behind a
// valid content hash: the torn write lives in a .put-*.tmp file that Get
// cannot address and the next NewDirStore sweeps away.
func TestDirStoreCrashTornPut(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("sensor payload destined for off-chain storage")
	ref := "file://" + Checksum(data)

	// Simulate the crash: the temp file exists with a torn prefix of the
	// payload, the rename never happened.
	torn, err := os.CreateTemp(dir, putTmpPattern)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	torn.Close()

	// The torn blob is unreachable through the store.
	if _, err := s.Get(ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after torn Put = %v, want ErrNotFound", err)
	}

	// Reopening the directory sweeps the stale temp file.
	if _, err := NewDirStore(dir); err != nil {
		t.Fatal(err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, putTmpPattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("stale temp files survived reopen: %v", stale)
	}

	// A successful Put leaves exactly the final object, no temp residue.
	gotRef, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotRef != ref {
		t.Fatalf("Put ref = %q, want %q", gotRef, ref)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir after Put has %d entries, want 1 (the object)", len(entries))
	}
	got, err := s.Get(ref)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after Put = %v, %v", got, err)
	}
}

// A torn final file (e.g. a non-atomic writer or disk fault) is detected by
// the checksum on Get rather than served as valid data.
func TestDirStoreTornFinalDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("complete object body")
	ref, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.TrimPrefix(ref, "file://")
	if err := os.WriteFile(s.path(key)+".torn", data[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(key)+".torn", s.path(key)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("Get torn final = %v, want ErrChecksumMismatch", err)
	}
}
