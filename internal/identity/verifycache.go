package identity

import (
	"crypto/sha256"
	"sync"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// DefaultVerifyCacheCap is the entry bound used when a VerifyCache is built
// with a non-positive capacity. At 32 key bytes plus list overhead per entry
// the default costs about 2 MiB per process — small next to the ECDSA
// verifications it saves.
const DefaultVerifyCacheCap = 16384

// VerifyCache is a bounded LRU of signature verifications that already
// succeeded. Fabric-style pipelines verify the same (message, signature,
// certificate) triple repeatedly — the committing peer re-checks what the
// gateway already checked, and gossip redelivery re-checks whole blocks — so
// remembering successful verifications converts steady-state re-validation
// into a hash lookup.
//
// Only successes are cached. A cached entry proves the exact triple verified
// once, which is as good as verifying it again: ECDSA verification is
// deterministic in (key, digest, signature). Failures are never cached, so
// an attacker cannot poison the cache; at worst a miss costs one real
// verification, exactly the pre-cache behaviour.
//
// The zero value is not usable; build with NewVerifyCache. All methods are
// safe for concurrent use.
type VerifyCache struct {
	mu   sync.Mutex
	seen *lru[[sha256.Size]byte, struct{}]
}

// VerifyCacheStats is a snapshot of cache effectiveness counters (of the
// signature cache, and of the MSP's identity table).
type VerifyCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// NewVerifyCache builds a cache bounded to capacity entries (the default
// when capacity is not positive).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheCap
	}
	return &VerifyCache{seen: newLRU[[sha256.Size]byte, struct{}](capacity, capacity)}
}

// verifyKey binds certificate, message, and signature into one cache key.
// Certificate and message enter as their SHA-256 digests — the first
// computed once per identity, the second exactly what ECDSA signs.
func verifyKey(certDigest, digest *[sha256.Size]byte, sig []byte) [sha256.Size]byte {
	return codec.HashFields(certDigest[:], digest[:], sig)
}

// lookup reports whether k is cached, refreshing its recency on hit.
func (c *VerifyCache) lookup(k [sha256.Size]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.seen.get(k)
	return ok
}

// insert records a successful verification, evicting the least recently
// used entry when full.
func (c *VerifyCache) insert(k [sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen.put(k, struct{}{})
}

// Stats returns a snapshot of the hit/miss counters and current size.
func (c *VerifyCache) Stats() VerifyCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen.stats()
}

// VerifyCached checks sig over digest like VerifyDigest, consulting the
// cache first. On a hit it returns immediately — skipping both the ECDSA
// verification and onMiss. On a miss it invokes onMiss (if non-nil) before
// verifying; callers use the hook to charge modeled verification hardware
// only for work that actually happens. A nil cache degrades to plain
// VerifyDigest with the onMiss charge, so call sites need no branching.
func (id *Identity) VerifyCached(cache *VerifyCache, digest [sha256.Size]byte, sig []byte, onMiss func()) error {
	if cache == nil {
		if onMiss != nil {
			onMiss()
		}
		return id.VerifyDigest(digest, sig)
	}
	k := verifyKey(&id.certDigest, &digest, sig)
	if cache.lookup(k) {
		return nil
	}
	if onMiss != nil {
		onMiss()
	}
	if err := id.VerifyDigest(digest, sig); err != nil {
		return err
	}
	cache.insert(k)
	return nil
}
