// Package identity implements the membership service provider (MSP)
// substrate: a certificate authority, ECDSA P-256 X.509 signing identities,
// and signature verification. It mirrors the role Fabric's MSP plays for
// HyperProv — every provenance record is bound to the X.509 certificate of
// the client that created it.
package identity

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// Role classifies what a certificate is allowed to do inside an org.
type Role int

// Certificate roles, mirroring Fabric's MSP principal classification.
const (
	RoleClient Role = iota + 1
	RolePeer
	RoleOrderer
	RoleAdmin
)

// String returns the textual form of the role used in certificate OUs.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RolePeer:
		return "peer"
	case RoleOrderer:
		return "orderer"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Errors returned by this package.
var (
	ErrUnknownOrg         = errors.New("identity: unknown organization")
	ErrBadSignature       = errors.New("identity: signature verification failed")
	ErrCertNotSignedByCA  = errors.New("identity: certificate not signed by org CA")
	ErrCertExpired        = errors.New("identity: certificate outside validity window")
	ErrMalformedIdentity  = errors.New("identity: malformed serialized identity")
	ErrRevoked            = errors.New("identity: certificate revoked")
	ErrDuplicateEnrollKey = errors.New("identity: enrollment id already issued")
)

// CA is a self-signed certificate authority for one organization. It issues
// signing identities to clients, peers, and orderers, and verifies that
// serialized identities presented on the wire chain back to it.
type CA struct {
	mu      sync.RWMutex
	org     string
	key     *ecdsa.PrivateKey
	cert    *x509.Certificate
	certDER []byte
	serial  int64
	issued  map[string]bool // enrollment id -> issued
	revoked map[string]bool // enrollment id -> revoked
	now     func() time.Time
}

// NewCA creates a self-signed CA for the given organization name.
func NewCA(org string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate CA key: %w", err)
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   "ca." + org,
			Organization: []string{org},
		},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("identity: self-sign CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parse CA cert: %w", err)
	}
	return &CA{
		org:     org,
		key:     key,
		cert:    cert,
		certDER: der,
		serial:  1,
		issued:  make(map[string]bool),
		revoked: make(map[string]bool),
		now:     time.Now,
	}, nil
}

// NewVerifyingCA reconstructs a verification-only CA from its certificate
// PEM: it can verify certificates issued by the real CA but holds no
// private key, so Enroll fails. This is how a remote process joins a
// network's trust domain over the wire — the peer transport's handshake
// ships CA certificates, never keys.
func NewVerifyingCA(certPEM []byte) (*CA, error) {
	block, _ := pem.Decode(certPEM)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, errors.New("identity: no certificate PEM block")
	}
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("identity: parse CA cert: %w", err)
	}
	if !cert.IsCA {
		return nil, errors.New("identity: certificate is not a CA")
	}
	if len(cert.Subject.Organization) == 0 {
		return nil, errors.New("identity: CA cert carries no organization")
	}
	return &CA{
		org:     cert.Subject.Organization[0],
		cert:    cert,
		certDER: block.Bytes,
		issued:  make(map[string]bool),
		revoked: make(map[string]bool),
		now:     time.Now,
	}, nil
}

// Org returns the organization name this CA serves.
func (ca *CA) Org() string { return ca.org }

// CertPEM returns the CA certificate in PEM form.
func (ca *CA) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.certDER})
}

// Enroll issues a new signing identity with the given enrollment id and role.
// Enrollment ids must be unique within the org.
func (ca *CA) Enroll(enrollID string, role Role) (*SigningIdentity, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.key == nil {
		return nil, fmt.Errorf("identity: CA %s is verification-only (no private key)", ca.org)
	}
	if ca.issued[enrollID] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEnrollKey, enrollID)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key for %q: %w", enrollID, err)
	}
	ca.serial++
	now := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.serial),
		Subject: pkix.Name{
			CommonName:         enrollID,
			Organization:       []string{ca.org},
			OrganizationalUnit: []string{role.String()},
		},
		NotBefore: now.Add(-time.Hour),
		NotAfter:  now.Add(5 * 365 * 24 * time.Hour),
		KeyUsage:  x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("identity: issue cert for %q: %w", enrollID, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parse issued cert: %w", err)
	}
	ca.issued[enrollID] = true
	pub := newIdentity(cert)
	wire, err := json.Marshal(serializedIdentity{MSPID: pub.mspID, CertDER: der})
	if err != nil {
		return nil, fmt.Errorf("identity: serialize %q: %w", enrollID, err)
	}
	return &SigningIdentity{key: key, certDER: der, pub: pub, wire: wire}, nil
}

// Revoke marks an enrollment id as revoked; subsequently presented
// certificates for that id fail verification.
func (ca *CA) Revoke(enrollID string) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[enrollID] = true
}

// VerifyCert checks that the certificate was issued by this CA, is inside
// its validity window, and has not been revoked.
func (ca *CA) VerifyCert(cert *x509.Certificate) error {
	if err := ca.checkIssued(cert); err != nil {
		return err
	}
	return ca.checkLive(cert.Subject.CommonName, cert.NotBefore, cert.NotAfter)
}

// checkIssued is the deterministic half of VerifyCert: the CA's signature
// over exactly these certificate bytes. Its answer never changes, so the MSP
// asks once per certificate.
func (ca *CA) checkIssued(cert *x509.Certificate) error {
	if err := cert.CheckSignatureFrom(ca.cert); err != nil {
		return fmt.Errorf("%w: %v", ErrCertNotSignedByCA, err)
	}
	return nil
}

// checkLive is the half of VerifyCert whose answer moves with time: the
// validity window against the CA's clock, and revocation of the enrollment
// id. The MSP runs it on every resolution, interned or not.
func (ca *CA) checkLive(enrollID string, notBefore, notAfter time.Time) error {
	now := ca.now()
	if now.Before(notBefore) || now.After(notAfter) {
		return ErrCertExpired
	}
	ca.mu.RLock()
	revoked := ca.revoked[enrollID]
	ca.mu.RUnlock()
	if revoked {
		return fmt.Errorf("%w: %q", ErrRevoked, enrollID)
	}
	return nil
}

// SigningIdentity is a private key + certificate pair able to sign messages.
// Its public half and wire form are fixed at enrollment and shared by every
// caller.
type SigningIdentity struct {
	key     *ecdsa.PrivateKey
	certDER []byte
	pub     *Identity
	wire    []byte
}

// Org returns the owning organization.
func (s *SigningIdentity) Org() string { return s.pub.org }

// ID returns the enrollment id (certificate CN).
func (s *SigningIdentity) ID() string { return s.pub.id }

// Role returns the role baked into the certificate.
func (s *SigningIdentity) Role() Role { return s.pub.role }

// MSPID returns the Fabric-style MSP identifier ("Org1MSP" style).
func (s *SigningIdentity) MSPID() string { return s.pub.mspID }

// Sign signs the SHA-256 digest of msg with the identity's private key.
func (s *SigningIdentity) Sign(msg []byte) ([]byte, error) {
	return s.SignDigest(sha256.Sum256(msg))
}

// SignDigest signs a SHA-256 digest with the identity's private key. The
// digest is the primitive: a caller that can stream its preimage into a
// hash (codec.Hasher) never builds the preimage.
func (s *SigningIdentity) SignDigest(digest [sha256.Size]byte) ([]byte, error) {
	ecdsaSigns.Add(1)
	sig, err := ecdsa.SignASN1(rand.Reader, s.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("identity: sign: %w", err)
	}
	return sig, nil
}

// Serialize returns the wire form of the identity (MSP id + cert DER),
// matching Fabric's SerializedIdentity proto. The slice is shared — it ends
// up in every proposal, endorsement and envelope this identity signs — and
// must not be modified.
func (s *SigningIdentity) Serialize() []byte { return s.wire }

// Identity returns the public (verification-only) half.
func (s *SigningIdentity) Identity() *Identity { return s.pub }

// CertPEM returns the identity certificate in PEM form; this is what
// HyperProv stores in each provenance record's creator field.
func (s *SigningIdentity) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: s.certDER})
}

type serializedIdentity struct {
	MSPID   string `json:"mspid"`
	CertDER []byte `json:"certDer"`
}

// Identity is the verification-only view of a member: what its certificate
// says, without the certificate. It is immutable, and one value is shared by
// everything that resolves the same serialized identity through an MSP, so
// what consumers would otherwise re-derive per use — MSP id, subject string,
// certificate digest — is computed once, in newIdentity, and the parsed
// x509 structure (several KiB) is not kept alive.
type Identity struct {
	org        string
	id         string
	role       Role
	pub        *ecdsa.PublicKey // nil for a non-ECDSA certificate: nothing verifies
	notBefore  time.Time
	notAfter   time.Time
	mspID      string
	subject    string
	certDigest [sha256.Size]byte // of the DER; signature-cache key component
}

// newIdentity derives the verification-only view of a parsed certificate.
func newIdentity(cert *x509.Certificate) *Identity {
	org, ou := "", ""
	if len(cert.Subject.Organization) > 0 {
		org = cert.Subject.Organization[0]
	}
	if len(cert.Subject.OrganizationalUnit) > 0 {
		ou = cert.Subject.OrganizationalUnit[0]
	}
	pub, _ := cert.PublicKey.(*ecdsa.PublicKey)
	return &Identity{
		org:        org,
		id:         cert.Subject.CommonName,
		role:       parseRole(ou),
		pub:        pub,
		notBefore:  cert.NotBefore,
		notAfter:   cert.NotAfter,
		mspID:      org + "MSP",
		subject:    fmt.Sprintf("x509::CN=%s,O=%s,OU=%s", cert.Subject.CommonName, org, ou),
		certDigest: sha256.Sum256(cert.Raw),
	}
}

// Org returns the owning organization.
func (id *Identity) Org() string { return id.org }

// ID returns the enrollment id (certificate CN).
func (id *Identity) ID() string { return id.id }

// Role returns the role parsed from the certificate OU.
func (id *Identity) Role() Role { return id.role }

// MSPID returns the MSP identifier.
func (id *Identity) MSPID() string { return id.mspID }

// Verify checks that sig is a valid signature over msg by this identity.
func (id *Identity) Verify(msg, sig []byte) error {
	return id.VerifyDigest(sha256.Sum256(msg), sig)
}

// VerifyDigest checks that sig is a valid signature by this identity over a
// message whose SHA-256 is digest.
func (id *Identity) VerifyDigest(digest [sha256.Size]byte, sig []byte) error {
	if id.pub == nil {
		return ErrBadSignature
	}
	ecdsaVerifies.Add(1)
	if !ecdsa.VerifyASN1(id.pub, digest[:], sig) {
		return ErrBadSignature
	}
	return nil
}

// ecdsaSigns and ecdsaVerifies count the ECDSA operations this process
// actually executed; a verification answered by a VerifyCache is not one.
var ecdsaSigns, ecdsaVerifies atomic.Uint64

// ECDSAOps returns the process-wide counts of executed ECDSA signatures and
// verifications — the per-transaction signature budget, measured.
func ECDSAOps() (signs, verifies uint64) {
	return ecdsaSigns.Load(), ecdsaVerifies.Load()
}

// Subject renders the identity the way HyperProv records it in the creator
// and owner fields of a provenance record: the certificate's CN, first O and
// first OU verbatim (an absent OU renders empty, not as the client role it
// defaults to).
func (id *Identity) Subject() string { return id.subject }

// identityTableCap bounds the MSP's table of resolved identities. A channel's
// members (peers, orderers, clients) number in the tens to hundreds; beyond
// the bound the least recently used identity is simply parsed again.
const identityTableCap = 1024

// MSP verifies serialized identities against the set of known org CAs. It is
// shared by peers, orderers, and clients.
//
// Resolved identities are interned: a serialized identity is parsed and its
// CA signature checked the first time these exact bytes are seen, and later
// resolutions return the same immutable *Identity after re-running only the
// checks whose answer moves with time (CA.checkLive). The table is keyed by
// the SHA-256 of the whole serialized identity, holds successes only — like
// VerifyCache, so hostile input cannot occupy or poison it — is bounded by
// identityTableCap, and is dropped whenever the trusted CA set changes.
type MSP struct {
	mu     sync.Mutex
	cas    map[string]*CA // org -> CA
	ids    *lru[[sha256.Size]byte, interned]
	verify *VerifyCache
}

// interned is a resolved identity together with the CA that vouched for it.
type interned struct {
	id *Identity
	ca *CA
}

// NewMSP creates an MSP trusting the given CAs. Every MSP carries a shared
// signature-verification cache (see VerifyCache) so all components resolving
// identities through it — gateway checks, commit validation, gossip
// redelivery — pool their verification work.
func NewMSP(cas ...*CA) *MSP {
	m := &MSP{
		cas:    make(map[string]*CA, len(cas)),
		ids:    newLRU[[sha256.Size]byte, interned](identityTableCap, 0),
		verify: NewVerifyCache(0),
	}
	for _, ca := range cas {
		m.cas[ca.org] = ca
	}
	return m
}

// VerifyCache returns the MSP's shared signature-verification cache.
func (m *MSP) VerifyCache() *VerifyCache { return m.verify }

// IdentityStats returns the identity table's hit/miss counters and size.
func (m *MSP) IdentityStats() VerifyCacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ids.stats()
}

// AddCA registers an additional trusted org CA, replacing the org's previous
// one. Identities the previous trust set vouched for are forgotten.
func (m *MSP) AddCA(ca *CA) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cas[ca.org] = ca
	m.ids.clear()
}

// Orgs lists the trusted organization names.
func (m *MSP) Orgs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cas))
	for org := range m.cas {
		out = append(out, org)
	}
	return out
}

// Deserialize parses and verifies a serialized identity: the certificate
// must chain to the org's currently trusted CA, be within validity, and not
// be revoked. The returned Identity is shared and immutable.
func (m *MSP) Deserialize(raw []byte) (*Identity, error) {
	key := sha256.Sum256(raw)
	m.mu.Lock()
	e, known := m.ids.get(key)
	m.mu.Unlock()
	if !known {
		var err error
		if e, err = m.resolve(raw); err != nil {
			return nil, err
		}
	}
	if err := e.ca.checkLive(e.id.id, e.id.notBefore, e.id.notAfter); err != nil {
		return nil, err
	}
	if !known {
		m.mu.Lock()
		// AddCA may have replaced the CA since resolve read it; an identity
		// vouched for by a CA that is no longer trusted must not be stored.
		if m.cas[e.id.org] == e.ca {
			m.ids.put(key, e)
		}
		m.mu.Unlock()
	}
	return e.id, nil
}

// resolve is the first-sight path: decode, parse, and check the CA's
// signature over the certificate.
func (m *MSP) resolve(raw []byte) (interned, error) {
	var si serializedIdentity
	if err := json.Unmarshal(raw, &si); err != nil {
		return interned{}, fmt.Errorf("%w: %v", ErrMalformedIdentity, err)
	}
	cert, err := x509.ParseCertificate(si.CertDER)
	if err != nil {
		return interned{}, fmt.Errorf("%w: %v", ErrMalformedIdentity, err)
	}
	id := newIdentity(cert)
	m.mu.Lock()
	ca, ok := m.cas[id.org]
	m.mu.Unlock()
	if !ok {
		return interned{}, fmt.Errorf("%w: %q", ErrUnknownOrg, id.org)
	}
	if err := ca.checkIssued(cert); err != nil {
		return interned{}, err
	}
	return interned{id: id, ca: ca}, nil
}

// parseRole maps a certificate's first OU to a role; absent and unknown OUs
// are clients.
func parseRole(ou string) Role {
	switch ou {
	case "peer":
		return RolePeer
	case "orderer":
		return RoleOrderer
	case "admin":
		return RoleAdmin
	default:
		return RoleClient
	}
}
