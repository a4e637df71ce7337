package core

import (
	"encoding/json"
	"fmt"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
)

// This file exposes the extended query operators: paginated listing,
// creator and metadata search, and direct-children lookup.

// ListPage re-exports one page of a listing.
type ListPage = provenance.ListPage

// List returns up to limit records whose keys start with prefix, resuming
// after the `after` bookmark (empty for the first page). The returned
// page's Next field is the bookmark for the following page.
func (c *Client) List(prefix, after string, limit int) (*ListPage, error) {
	in := map[string]any{"prefix": prefix, "after": after, "limit": limit}
	raw, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("hyperprov: marshal list args: %w", err)
	}
	return read(c, provenance.DecodePage, "list page", provenance.FnList, raw)
}

// ListAll walks every page of a prefix listing and returns all records.
func (c *Client) ListAll(prefix string) ([]Record, error) {
	var out []Record
	after := ""
	for {
		page, err := c.List(prefix, after, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Records...)
		if page.Next == "" {
			return out, nil
		}
		after = page.Next
	}
}

// GetByCreator returns every live record posted by the given creator
// subject (as recorded in Record.Creator).
func (c *Client) GetByCreator(creator string) ([]Record, error) {
	return c.records(provenance.FnGetByCreator, []byte(creator))
}

// QueryMeta returns every live record whose metadata field key equals
// value.
func (c *Client) QueryMeta(key, value string) ([]Record, error) {
	return c.records(provenance.FnQueryMeta, []byte(key), []byte(value))
}

// GetChildren returns the records directly derived from key (one lineage
// edge, not the transitive closure).
func (c *Client) GetChildren(key string) ([]Record, error) {
	return c.records(provenance.FnGetChildren, []byte(key))
}

// ChaincodeVersion reports the deployed provenance contract version.
func (c *Client) ChaincodeVersion() (string, error) {
	payload, err := c.gw.Evaluate(provenance.ChaincodeName, provenance.FnVersion)
	return string(payload), err
}
