package identity

import "testing"

func BenchmarkSign(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sid.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	sig, err := sid.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	id := sid.Identity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := id.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeserializeCold resolves a serialized identity the MSP has never
// seen (a fresh MSP per iteration): JSON decode, x509 parse, CA signature
// check.
func BenchmarkDeserializeCold(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	raw := sid.Serialize()
	msp := NewMSP(ca)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msp.AddCA(ca) // same trust set, empty table
		if _, err := msp.Deserialize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeserializeWarm resolves an interned identity: digest, table
// lookup, validity window and revocation.
func BenchmarkDeserializeWarm(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	msp := NewMSP(ca)
	raw := sid.Serialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msp.Deserialize(raw); err != nil {
			b.Fatal(err)
		}
	}
}
