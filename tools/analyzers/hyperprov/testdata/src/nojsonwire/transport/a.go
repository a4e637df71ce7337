// Package transport is an in-scope fixture for the nojsonwire analyzer: a
// package that owns a wire may not import the text encodings.
package transport

import (
	"encoding/base64" // want "encoding/base64 imported in a package that owns a wire"
	"encoding/binary"
	"encoding/json" // want "encoding/json imported in a package that owns a wire"
)

type request struct {
	Op   string `json:"op"`
	Data []byte `json:"data"`
}

func bad(r *request) ([]byte, string) {
	b, _ := json.Marshal(r)
	return b, base64.StdEncoding.EncodeToString(r.Data)
}

func good(buf []byte, n uint64) []byte {
	// Binary encodings are what the wire is made of.
	return binary.AppendUvarint(buf, n)
}
