package provenance

import (
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
// raw current record (nil for a fresh key); the one pass that reads its
// owner also returns its checksum, whose index entry the mutation retires.
func authorizeMutation(existing []byte, client shim.ClientIdentity) (checksum string, err error) {
	if existing == nil {
		return "", nil
	}
	var owner, creator string
	fields := map[string]*string{"owner": &owner, "creator": &creator, "checksum": &checksum}
	err = readFields(existing, func(d *decoder, name string) error { return d.str(fields[name]) }, "owner", "creator", "checksum")
	if client.Admin {
		return checksum, nil // whatever the record holds: an admin may replace a corrupt one
	}
	if err != nil {
		return "", fmt.Errorf("corrupt existing record: %w", err)
	}
	if owner == "" {
		owner = creator // records written before ownership tracking
	}
	if owner != client.Subject {
		return "", fmt.Errorf("record owned by %q, not %q", owner, client.Subject)
	}
	return checksum, nil
}
