package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fillFileStore(t *testing.T, s *FileStore, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		b := NewBlock(uint64(i), s.LastHash(), []Envelope{mkEnv(fmt.Sprintf("tx-%d", i), "set")})
		if err := s.Append(b); err != nil {
			t.Fatalf("Append block %d: %v", i, err)
		}
	}
}

// writeChain creates a closed ledger of n blocks and returns its path.
func writeChain(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.hpb")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := writeChain(t, 5)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, v2Magic) {
		t.Fatalf("ledger does not start with record magic: %q", raw[:8])
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Height() != 5 {
		t.Fatalf("reloaded height = %d, want 5", s2.Height())
	}
	if err := s2.VerifyChain(); err != nil {
		t.Errorf("reloaded chain: %v", err)
	}
	env, code, err := s2.GetTx("tx-3")
	if err != nil || code != TxValid || env.TxID != "tx-3" {
		t.Errorf("GetTx after reload = %v %v %v", env, code, err)
	}
	// Appending continues the chain.
	fillFileStore(t, s2, 5, 2)
	if s2.Height() != 7 {
		t.Errorf("height after continued appends = %d", s2.Height())
	}
}

func TestFileStoreDiscardsTornTail(t *testing.T) {
	path := writeChain(t, 3)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-body (crash during append).
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after torn record: %v", err)
	}
	if s2.Height() != 2 {
		t.Fatalf("height after torn record = %d, want 2", s2.Height())
	}
	// Appends continue cleanly on the truncated file.
	fillFileStore(t, s2, 2, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Height() != 4 {
		t.Fatalf("final height = %d, want 4", s3.Height())
	}
	if err := s3.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestFileStoreTornMagicAndLength(t *testing.T) {
	path := writeChain(t, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append can stop inside the magic or the length uvarint; both
	// must read as a torn tail, not corruption.
	for _, tail := range [][]byte{{'H'}, {'H', 'P'}, {'H', 'P', 'B', '2'}, {'H', 'P', 'B', '2', 0xFF}} {
		crashed := append(append([]byte(nil), raw...), tail...)
		crashPath := filepath.Join(t.TempDir(), "crash.hpb")
		if err := os.WriteFile(crashPath, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenFileStore(crashPath)
		if err != nil {
			t.Fatalf("tail %v: %v", tail, err)
		}
		if s2.Height() != 2 {
			t.Fatalf("tail %v: height = %d, want 2", tail, s2.Height())
		}
		s2.Close()
	}
}

func TestFileStoreZeroFilledTailIsTorn(t *testing.T) {
	path := writeChain(t, 3)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen over zero-filled tail: %v", err)
	}
	defer s2.Close()
	if s2.Height() != 3 {
		t.Fatalf("height = %d, want 3", s2.Height())
	}
}

func TestFileStoreMidFileDamageIsCorruption(t *testing.T) {
	path := writeChain(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file: the record is complete, so
	// the CRC failure cannot be a crash artifact, and truncating would
	// silently discard the valid blocks that follow.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 0x01
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("mid-file flip: err = %v, want ErrCorruptFile", err)
	}
}

// readRecords decodes every record of the ledger at path.
func readRecords(t *testing.T, path string) []*Block {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*Block
	for len(raw) > 0 {
		blob, total, status := parseV2Record(raw)
		if status != recComplete {
			t.Fatalf("record %d: status %d", len(blocks), status)
		}
		b, err := UnmarshalBlock(blob)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		raw = raw[total:]
	}
	return blocks
}

// writeRecords writes blocks as well-formed records (valid length, valid
// CRC), whatever their contents.
func writeRecords(t *testing.T, path string, blocks []*Block) {
	t.Helper()
	var out []byte
	for _, b := range blocks {
		blob := MarshalBlock(b)
		out = append(out, v2Magic...)
		out = binary.AppendUvarint(out, uint64(len(blob)))
		out = append(out, blob...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A rewritten record passes the framing and CRC checks — only the data-hash
// and hash-chain verification on open can catch it.
func TestFileStoreRejectsRewrittenRecord(t *testing.T) {
	rewrites := map[string]func(t *testing.T, blocks []*Block){
		"envelope altered under the old header": func(t *testing.T, blocks []*Block) {
			env := mkEnv("tx-X", "set")
			blocks[1] = &Block{Header: blocks[1].Header, Envelopes: []Envelope{env}}
		},
		"block rebuilt around an altered envelope": func(t *testing.T, blocks []*Block) {
			b := NewBlock(1, blocks[1].Header.PreviousHash, []Envelope{mkEnv("tx-X", "set")})
			blocks[1] = b // consistent in itself; block 2 no longer chains onto it
		},
		"wrong previous hash": func(t *testing.T, blocks []*Block) {
			blocks[2].Header.PreviousHash = blocks[0].Header.Hash()
		},
		"final record rewritten": func(t *testing.T, blocks []*Block) {
			last := len(blocks) - 1
			blocks[last].Header.PreviousHash = blocks[0].Header.Hash()
		},
	}
	for name, rewrite := range rewrites {
		t.Run(name, func(t *testing.T) {
			path := writeChain(t, 4)
			blocks := readRecords(t, path)
			rewrite(t, blocks)
			writeRecords(t, path, blocks)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("err = %v, want ErrCorruptFile", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Fatal("failed open modified the file")
			}
		})
	}
}

func TestFileStoreSyncEachAppendSurvivesNoFlushClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.hpb")
	s, err := OpenFileStoreWithPolicy(path, SyncEachAppend)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	// Simulate a process kill: no flush, no fsync. With SyncEachAppend
	// every block already reached the file, so nothing is lost.
	if err := s.CloseNoFlush(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Height() != 3 {
		t.Errorf("height after kill with SyncEachAppend = %d, want 3", s2.Height())
	}
}

func TestFileStoreSequenceStillEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.hpb")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillFileStore(t, s, 0, 2)
	bad := NewBlock(7, s.LastHash(), []Envelope{mkEnv("bad", "set")})
	if err := s.Append(bad); !errors.Is(err, ErrWrongSequence) {
		t.Errorf("out-of-sequence append: err = %v, want ErrWrongSequence", err)
	}
	unchained := NewBlock(2, []byte("not the last hash"), []Envelope{mkEnv("bad", "set")})
	if err := s.Append(unchained); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("wrong-previous-hash append: err = %v, want ErrBrokenChain", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if s.Height() != 2 {
		t.Errorf("height after rejected appends = %d, want 2", s.Height())
	}
}

// A file that does not begin with the record magic — a JSON-lines ledger
// included — is refused, never misparsed or truncated.
func TestFileStoreUnrecognizedFormatByte(t *testing.T) {
	for _, content := range []string{"XYZZY", `{"header":{"number":0}}` + "\n"} {
		path := filepath.Join(t.TempDir(), "chain.hpb")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("%q: err = %v, want ErrCorruptFile", content, err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("%q: failed open left %q behind", content, got)
		}
	}
}
