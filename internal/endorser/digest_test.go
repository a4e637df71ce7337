package endorser

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/identity"
)

// goldenProposal and goldenResponse, with the SHA-256 of their SignedBytes as
// computed at commit 1486aeb (before digests were streamed): the preimage
// layouts must not move, or every stored signature stops verifying.
var (
	goldenProposal = Proposal{TxID: "tx-golden", ChannelID: "ch", Chaincode: "provenance", Function: "set",
		Args: [][]byte{[]byte("k"), nil, []byte("v")}, Creator: []byte("creator-identity"),
		Timestamp: time.Unix(1700000000, 123456789)}
	goldenResponse = Response{TxID: "tx-golden", Status: 200, Payload: []byte("payload"), RWSet: []byte{1, 2, 3},
		Endorser: []byte("endorser-identity")}
)

const (
	goldenProposalDigest = "f8704390f2d2cf307b524f7f84389a5f20b50d66abc424750faa4c76a461385a"
	goldenResponseDigest = "c0082d3a2ae4657d2dc66ff8a17e17a2774db5dd4eacf1ae7bcbb6f497e211de"
)

// SignedDigest streams what SignedBytes builds: on every shape of input the
// two agree, and both agree with the parent commit's bytes.
func TestSignedDigestMatchesSignedBytes(t *testing.T) {
	if got := goldenProposal.SignedDigest(); hex.EncodeToString(got[:]) != goldenProposalDigest {
		t.Errorf("golden proposal digest = %x, want %s", got, goldenProposalDigest)
	}
	if got := goldenResponse.SignedDigest(); hex.EncodeToString(got[:]) != goldenResponseDigest {
		t.Errorf("golden response digest = %x, want %s", got, goldenResponseDigest)
	}
	big := bytes.Repeat([]byte{0xa5}, 70_000)
	proposals := map[string]Proposal{
		"zero":             {},
		"golden":           goldenProposal,
		"nil args":         {TxID: "t", Args: nil, Timestamp: time.Unix(1, 0)},
		"empty args":       {TxID: "t", Args: [][]byte{}, Timestamp: time.Unix(1, 0)},
		"nil vs empty":     {Args: [][]byte{nil, {}, []byte("x")}, Creator: []byte{}},
		"nanoseconds":      {Timestamp: time.Unix(1700000123, 999999999)},
		"before the epoch": {Timestamp: time.Unix(-5, 1)},
		"long fields":      {TxID: string(big[:200]), Function: string(big[:65]), Args: [][]byte{big}, Creator: big[:3000]},
	}
	for name, p := range proposals {
		if got, want := p.SignedDigest(), sha256.Sum256(p.SignedBytes()); got != want {
			t.Errorf("proposal %q: SignedDigest %x, sha256(SignedBytes) %x", name, got, want)
		}
	}
	responses := map[string]Response{
		"zero":            {},
		"golden":          goldenResponse,
		"negative status": {TxID: "t", Status: -1, Message: "simulation failed"},
		"extreme status":  {Status: -1 << 31},
		"nil vs empty":    {Payload: []byte{}, RWSet: nil, Events: []byte{}},
		"long fields":     {TxID: string(big[:64]), Message: string(big[:129]), Payload: big, RWSet: big[:4096], Events: big[:100], Endorser: big[:900]},
	}
	for name, r := range responses {
		if got, want := r.SignedDigest(), sha256.Sum256(r.SignedBytes()); got != want {
			t.Errorf("response %q: SignedDigest %x, sha256(SignedBytes) %x", name, got, want)
		}
	}
}

// FuzzSignedDigest holds SignedDigest to sha256(SignedBytes) — the two spell
// the same layout twice — over arbitrary field contents.
func FuzzSignedDigest(f *testing.F) {
	f.Add("tx", "ch", "cc", "fn", []byte("a"), []byte(nil), uint8(3), int64(1700000000), int64(123456789), int32(200), "", []byte("rwset"))
	f.Add("", "", "", "", []byte(nil), []byte{}, uint8(0), int64(0), int64(0), int32(-1), "failed", []byte(nil))
	f.Add(string(bytes.Repeat([]byte("x"), 130)), "ch", "cc", "fn", bytes.Repeat([]byte{1}, 300), []byte{0}, uint8(7), int64(-5), int64(999999999), int32(-1<<31), "m", bytes.Repeat([]byte{2}, 5000))
	f.Fuzz(func(t *testing.T, txID, channel, chaincode, fn string, a, b []byte, nargs uint8, sec, nsec int64, status int32, msg string, c []byte) {
		p := Proposal{TxID: txID, ChannelID: channel, Chaincode: chaincode, Function: fn, Creator: b}
		for i := 0; i < int(nargs%5); i++ {
			p.Args = append(p.Args, [][]byte{a, b, nil}[i%3])
		}
		if sec != 0 || nsec != 0 {
			p.Timestamp = time.Unix(sec, nsec%1_000_000_000)
		}
		if got, want := p.SignedDigest(), sha256.Sum256(p.SignedBytes()); got != want {
			t.Fatalf("proposal %+v: SignedDigest %x, sha256(SignedBytes) %x", p, got, want)
		}
		r := Response{TxID: txID, Status: status, Message: msg, Payload: a, RWSet: c, Events: b, Endorser: []byte(channel)}
		if got, want := r.SignedDigest(), sha256.Sum256(r.SignedBytes()); got != want {
			t.Fatalf("response %+v: SignedDigest %x, sha256(SignedBytes) %x", r, got, want)
		}
	})
}

// Re-verifying an endorsement the process already verified — what the
// gateway's check leaves for every committing peer — allocates nothing that
// grows with the response: no preimage, only fixed-size bookkeeping.
func TestWarmResponseVerifyAllocatesNoPreimage(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ca.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca)
	r := mkResponse(t, peer, bytes.Repeat([]byte{7}, 4096), []byte("payload"))
	if _, err := r.verifyCached(msp, nil); err != nil { // warm: identity interned, triple cached
		t.Fatal(err)
	}
	_, verifiesBefore := identity.ECDSAOps()
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(calls, func() {
		if _, err := r.verifyCached(msp, nil); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if perCall := float64(after.TotalAlloc-before.TotalAlloc) / (calls + 1); allocs > 2 || perCall >= 256 {
		t.Errorf("warm verify of a 4 KiB-rwset response: %.0f allocs, %.0f B per call; want <= 2 allocs, < 256 B", allocs, perCall)
	}
	if _, verifies := identity.ECDSAOps(); verifies != verifiesBefore {
		t.Errorf("warm verifies executed %d ECDSA verifications", verifies-verifiesBefore)
	}
}
