package provenance

import (
	"encoding/json"
	"fmt"

	"github.com/hyperprov/hyperprov/internal/shim"
)

// This file implements the ownership model: every record is bound to the
// verified wire identity that created it (the paper's "data ownership"
// field), and only that owner — or an org admin — may update or delete the
// record. The peer has already verified the client's signature and resolved
// its certificate before the chaincode runs; the stub hands that resolution
// over (shim.Stub.Client), so the chaincode parses nothing.

// authorizeMutation enforces owner-only updates/deletes. existing is the
// raw current record (nil for a fresh key).
func authorizeMutation(existing []byte, client shim.ClientIdentity) error {
	if existing == nil || client.Admin {
		return nil
	}
	var rec Record
	if err := json.Unmarshal(existing, &rec); err != nil {
		return fmt.Errorf("corrupt existing record: %w", err)
	}
	owner := rec.Owner
	if owner == "" {
		owner = rec.Creator // records written before ownership tracking
	}
	if owner != client.Subject {
		return fmt.Errorf("record owned by %q, not %q", owner, client.Subject)
	}
	return nil
}
