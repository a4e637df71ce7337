package rwset

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hyperprov/hyperprov/internal/statedb"
)

func commit(t *testing.T, s *statedb.Store, ver statedb.Version, kvs map[string]string) {
	t.Helper()
	b := statedb.NewUpdateBatch()
	for k, v := range kvs {
		b.Put(k, []byte(v), ver)
	}
	if err := s.ApplyUpdates(b, ver); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
}

func TestBuilderReadYourWrites(t *testing.T) {
	b := NewBuilder()
	b.AddWrite("k", []byte("v1"))
	val, del, ok := b.PendingWrite("k")
	if !ok || del || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("PendingWrite = %q %v %v", val, del, ok)
	}
	b.AddDelete("k")
	_, del, ok = b.PendingWrite("k")
	if !ok || !del {
		t.Fatalf("PendingWrite after delete = %v %v", del, ok)
	}
}

func TestBuilderFirstReadWins(t *testing.T) {
	b := NewBuilder()
	v1 := statedb.Version{BlockNum: 1}
	v2 := statedb.Version{BlockNum: 2}
	b.AddRead("k", &v1)
	b.AddRead("k", &v2) // ignored: simulation sees a stable view
	rws := b.Build()
	if len(rws.Reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(rws.Reads))
	}
	if rws.Reads[0].Version.BlockNum != 1 {
		t.Errorf("read version = %v, want block 1", rws.Reads[0].Version)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	b := NewBuilder()
	v := statedb.Version{BlockNum: 3, TxNum: 1}
	b.AddRead("r1", &v)
	b.AddRead("r0", nil)
	b.AddWrite("w1", []byte("x"))
	b.AddDelete("w0")
	b.AddRangeRead("a", "z", []string{"b", "c"})
	rws := b.Build()

	raw := rws.Marshal()
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	again := got.Marshal()
	if !bytes.Equal(raw, again) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", rws, got)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	mk := func(order []string) []byte {
		b := NewBuilder()
		for _, k := range order {
			b.AddWrite(k, []byte(k))
		}
		return b.Build().Marshal()
	}
	a := mk([]string{"x", "a", "m"})
	b := mk([]string{"m", "x", "a"})
	if !bytes.Equal(a, b) {
		t.Errorf("marshal not deterministic:\n%s\n%s", a, b)
	}
}

func TestValidateCleanRead(t *testing.T) {
	s := statedb.New()
	commit(t, s, statedb.Version{BlockNum: 1}, map[string]string{"k": "v"})
	v := statedb.Version{BlockNum: 1}
	rws := &ReadWriteSet{Reads: []Read{{Key: "k", Version: &v}}}
	if err := Validate(rws, s, nil); err != nil {
		t.Errorf("Validate clean read: %v", err)
	}
}

func TestValidateConflicts(t *testing.T) {
	s := statedb.New()
	commit(t, s, statedb.Version{BlockNum: 2}, map[string]string{"k": "v2"})
	old := statedb.Version{BlockNum: 1}
	cur := statedb.Version{BlockNum: 2}

	tests := []struct {
		name        string
		rws         *ReadWriteSet
		blockWrites map[string]bool
		wantErr     bool
	}{
		{"stale version", &ReadWriteSet{Reads: []Read{{Key: "k", Version: &old}}}, nil, true},
		{"current version", &ReadWriteSet{Reads: []Read{{Key: "k", Version: &cur}}}, nil, false},
		{"created since sim", &ReadWriteSet{Reads: []Read{{Key: "k", Version: nil}}}, nil, true},
		{"deleted since sim", &ReadWriteSet{Reads: []Read{{Key: "gone", Version: &old}}}, nil, true},
		{"absent stays absent", &ReadWriteSet{Reads: []Read{{Key: "gone", Version: nil}}}, nil, false},
		{"intra-block conflict", &ReadWriteSet{Reads: []Read{{Key: "k", Version: &cur}}},
			map[string]bool{"k": true}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.rws, s, tt.blockWrites)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidatePhantom(t *testing.T) {
	s := statedb.New()
	commit(t, s, statedb.Version{BlockNum: 1}, map[string]string{"a": "1", "b": "2"})

	ok := &ReadWriteSet{RangeReads: []RangeRead{{StartKey: "a", EndKey: "z", Keys: []string{"a", "b"}}}}
	if err := Validate(ok, s, nil); err != nil {
		t.Errorf("clean range: %v", err)
	}
	phantomCount := &ReadWriteSet{RangeReads: []RangeRead{{StartKey: "a", EndKey: "z", Keys: []string{"a"}}}}
	if err := Validate(phantomCount, s, nil); err == nil {
		t.Error("phantom (extra key) not detected")
	}
	phantomKey := &ReadWriteSet{RangeReads: []RangeRead{{StartKey: "a", EndKey: "z", Keys: []string{"a", "c"}}}}
	if err := Validate(phantomKey, s, nil); err == nil {
		t.Error("phantom (changed key) not detected")
	}
	intraBlock := &ReadWriteSet{RangeReads: []RangeRead{{StartKey: "a", EndKey: "z", Keys: []string{"a", "b"}}}}
	if err := Validate(intraBlock, s, map[string]bool{"b": true}); err == nil {
		t.Error("intra-block range conflict not detected")
	}
}

// Property: of N transactions that all read the same key version and write
// it, serial MVCC validation lets exactly the first through.
func TestQuickSerializability(t *testing.T) {
	f := func(n uint8) bool {
		txs := int(n%8) + 2
		s := statedb.New()
		ver := statedb.Version{BlockNum: 1}
		b := statedb.NewUpdateBatch()
		b.Put("counter", []byte("0"), ver)
		if err := s.ApplyUpdates(b, ver); err != nil {
			return false
		}
		// All transactions simulated against the same snapshot.
		rwsets := make([]*ReadWriteSet, txs)
		for i := range rwsets {
			bld := NewBuilder()
			bld.AddRead("counter", &ver)
			bld.AddWrite("counter", []byte(fmt.Sprintf("%d", i)))
			rwsets[i] = bld.Build()
		}
		// Validate in block order, applying winners' writes.
		blockWrites := map[string]bool{}
		valid := 0
		for txNum, rws := range rwsets {
			if err := Validate(rws, s, blockWrites); err != nil {
				continue
			}
			valid++
			ub := statedb.NewUpdateBatch()
			for _, w := range rws.Writes {
				blockWrites[w.Key] = true
				ub.Put(w.Key, w.Value, statedb.Version{BlockNum: 2, TxNum: uint64(txNum)})
			}
			_ = ub // writes applied at end of block in the real pipeline
		}
		return valid == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: validation of disjoint key sets always succeeds.
func TestQuickDisjointTxsAllValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := statedb.New()
		ver := statedb.Version{BlockNum: 1}
		b := statedb.NewUpdateBatch()
		n := rng.Intn(10) + 2
		for i := 0; i < n; i++ {
			b.Put(fmt.Sprintf("k%d", i), []byte("v"), ver)
		}
		if err := s.ApplyUpdates(b, ver); err != nil {
			return false
		}
		blockWrites := map[string]bool{}
		for i := 0; i < n; i++ {
			bld := NewBuilder()
			key := fmt.Sprintf("k%d", i)
			bld.AddRead(key, &ver)
			bld.AddWrite(key, []byte("new"))
			if err := Validate(bld.Build(), s, blockWrites); err != nil {
				return false
			}
			blockWrites[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
