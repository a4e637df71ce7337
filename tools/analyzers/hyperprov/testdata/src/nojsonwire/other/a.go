// Package other is out of scope: chaincode documents and admin endpoints
// are JSON by design.
package other

import "encoding/json"

func fine(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}
