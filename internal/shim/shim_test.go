package shim

import (
	"bytes"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

func newStub(t *testing.T, seed map[string]string) *Stub {
	t.Helper()
	st := statedb.New()
	if len(seed) > 0 {
		b := statedb.NewUpdateBatch()
		for k, v := range seed {
			b.Put(k, []byte(v), statedb.Version{BlockNum: 1})
		}
		if err := st.ApplyUpdates(b, statedb.Version{BlockNum: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return NewStub(Config{
		TxID:      "tx1",
		ChannelID: "ch",
		Function:  "set",
		Args:      [][]byte{[]byte("a"), []byte("b")},
		Creator:   []byte("creator-identity"),
		Timestamp: time.Unix(100, 0),
		State:     st,
		History:   historydb.New(),
	})
}

func TestStubAccessors(t *testing.T) {
	s := newStub(t, nil)
	if s.TxID() != "tx1" || s.ChannelID() != "ch" || s.Function() != "set" {
		t.Error("accessor mismatch")
	}
	if got := s.StringArgs(); len(got) != 2 || got[0] != "a" {
		t.Errorf("StringArgs = %v", got)
	}
	if !bytes.Equal(s.Creator(), []byte("creator-identity")) {
		t.Error("Creator mismatch")
	}
	if !s.TxTimestamp().Equal(time.Unix(100, 0)) {
		t.Error("timestamp mismatch")
	}
}

func TestGetStateReadsCommitted(t *testing.T) {
	s := newStub(t, map[string]string{"k": "v"})
	got, err := s.GetState("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("GetState = %q, %v", got, err)
	}
	absent, err := s.GetState("nope")
	if err != nil || absent != nil {
		t.Fatalf("GetState(absent) = %q, %v", absent, err)
	}
	rws := s.RWSet()
	if len(rws.Reads) != 2 {
		t.Fatalf("reads = %d, want 2", len(rws.Reads))
	}
}

func TestReadYourWrites(t *testing.T) {
	s := newStub(t, map[string]string{"k": "old"})
	if err := s.PutState("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetState("k")
	if err != nil || string(got) != "new" {
		t.Fatalf("GetState after put = %q, %v", got, err)
	}
	if err := s.DelState("k"); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetState("k")
	if err != nil || got != nil {
		t.Fatalf("GetState after delete = %q, %v", got, err)
	}
	// Reads served from the write cache add no read dependency.
	if n := len(s.RWSet().Reads); n != 0 {
		t.Errorf("reads = %d, want 0 (served from write cache)", n)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := newStub(t, nil)
	if _, err := s.GetState(""); err == nil {
		t.Error("GetState empty key accepted")
	}
	if err := s.PutState("", nil); err == nil {
		t.Error("PutState empty key accepted")
	}
	if err := s.DelState(""); err == nil {
		t.Error("DelState empty key accepted")
	}
}

// Plain keys must not contain U+0000 — the write-gate invariant that lets
// the state database exclude the whole composite namespace from plain
// range scans with one bound check. Composite keys (U+0000-prefixed, from
// CreateCompositeKey) still pass.
func TestInteriorNulKeyRejected(t *testing.T) {
	s := newStub(t, nil)
	if err := s.PutState("a\x00b", []byte("v")); err == nil {
		t.Error("PutState accepted plain key with interior U+0000")
	}
	if err := s.DelState("a\x00b"); err == nil {
		t.Error("DelState accepted plain key with interior U+0000")
	}
	ck, err := s.CreateCompositeKey("edge", []string{"p", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutState(ck, []byte("v")); err != nil {
		t.Errorf("PutState rejected composite key: %v", err)
	}
	if err := s.DelState(ck); err != nil {
		t.Errorf("DelState rejected composite key: %v", err)
	}
}

func TestRangeRecordsPhantomRead(t *testing.T) {
	s := newStub(t, map[string]string{"a": "1", "b": "2", "c": "3"})
	kvs, err := s.GetStateByRange("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("range = %d entries, want 2", len(kvs))
	}
	rws := s.RWSet()
	if len(rws.RangeReads) != 1 || len(rws.RangeReads[0].Keys) != 2 {
		t.Errorf("range reads = %+v", rws.RangeReads)
	}
}

func TestHistoryForKey(t *testing.T) {
	st := statedb.New()
	h := historydb.New()
	h.Record("k", historydb.Entry{TxID: "t1", Value: []byte("v1"), BlockNum: 1})
	h.Record("k", historydb.Entry{TxID: "t2", Value: []byte("v2"), BlockNum: 2})
	s := NewStub(Config{TxID: "tx", State: st, History: h})
	entries, err := s.GetHistoryForKey("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].TxID != "t1" || entries[1].BlockNum != 2 {
		t.Errorf("history = %+v", entries)
	}
	// No history DB -> error.
	s2 := NewStub(Config{TxID: "tx", State: st})
	if _, err := s2.GetHistoryForKey("k"); err == nil {
		t.Error("GetHistoryForKey without history db succeeded")
	}
}

func TestEvents(t *testing.T) {
	s := newStub(t, nil)
	if err := s.SetEvent("", nil); err == nil {
		t.Error("empty event name accepted")
	}
	payload := []byte("data")
	if err := s.SetEvent("commit", payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // caller mutation must not leak
	evs := s.Events()
	if len(evs) != 1 || evs[0].Name != "commit" || evs[0].Payload[0] != 'd' {
		t.Errorf("events = %+v", evs)
	}
}

func TestCompositeKeyHelpers(t *testing.T) {
	s := newStub(t, nil)
	key, err := s.CreateCompositeKey("edge", []string{"p", "c"})
	if err != nil {
		t.Fatal(err)
	}
	typ, attrs, err := s.SplitCompositeKey(key)
	if err != nil || typ != "edge" || len(attrs) != 2 {
		t.Errorf("split = %q %v %v", typ, attrs, err)
	}
}

func TestGetStateCopies(t *testing.T) {
	s := newStub(t, map[string]string{"k": "value"})
	got, err := s.GetState("k")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	again, err := s.GetState("k")
	if err != nil || again[0] != 'v' {
		t.Errorf("stub returned aliased state: %q", again)
	}
}

func TestClientFallsBackToVerbatimCreator(t *testing.T) {
	resolved := NewStub(Config{
		Creator: []byte("wire bytes"),
		Client: func() ClientIdentity {
			return ClientIdentity{Subject: "x509::CN=boss,O=Org1,OU=admin", Admin: true}
		},
	})
	if got := resolved.Client(); got.Subject != "x509::CN=boss,O=Org1,OU=admin" || !got.Admin {
		t.Errorf("resolved client = %+v", got)
	}
	// A creator the peer did not resolve is its own subject and never admin.
	unresolved := func() ClientIdentity { return ClientIdentity{} }
	for _, resolve := range []func() ClientIdentity{nil, unresolved} {
		plain := NewStub(Config{Creator: []byte("plain-string-creator"), Client: resolve})
		if got := plain.Client(); got.Subject != "plain-string-creator" || got.Admin {
			t.Errorf("fallback client = %+v", got)
		}
	}
}
