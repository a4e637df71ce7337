package core

import (
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
)

// This file exposes the rich-query operators: Mango selector queries and
// the indexed provenance lookups (by owner, by type, by time window) the
// paper runs against CouchDB.

// QueryPage re-exports one page of a rich query result.
type QueryPage = provenance.QueryPage

// RichQuery runs a raw Mango query document against the provenance store:
//
//	{"selector": {"owner": "x509::CN=alice,...", "ts": {"$gt": 0}},
//	 "sort": [{"ts": "desc"}], "limit": 25}
//
// A bare selector object is also accepted. Sort, limit, and bookmark ride
// inside the query document; the returned page carries the next bookmark.
func (c *Client) RichQuery(query string) (*QueryPage, error) {
	page, err := read(c, provenance.DecodePage, "query page", provenance.FnRichQuery, []byte(query))
	return (*QueryPage)(page), err
}

// GetByOwner returns every live record owned by the given wire identity
// subject, served from the by-owner secondary index.
func (c *Client) GetByOwner(owner string) ([]Record, error) {
	return c.records(provenance.FnGetByOwner, []byte(owner))
}

// GetMine returns every live record owned by this client's identity.
func (c *Client) GetMine() ([]Record, error) {
	return c.GetByOwner(c.Subject())
}

// GetByType returns every live record whose meta.type equals t, served
// from the by-type secondary index.
func (c *Client) GetByType(t string) ([]Record, error) {
	return c.records(provenance.FnGetByType, []byte(t))
}

// GetByTimeRange returns the records whose transaction timestamp lies in
// [from, to), oldest first, served from the by-time secondary index.
// RFC3339Nano keeps sub-second bounds exact (records carry millisecond
// timestamps; plain RFC3339 would shift the window by up to a second).
func (c *Client) GetByTimeRange(from, to time.Time) ([]Record, error) {
	return c.records(provenance.FnGetByTimeRange,
		[]byte(from.UTC().Format(time.RFC3339Nano)), []byte(to.UTC().Format(time.RFC3339Nano)))
}
