package transport

import "encoding/json"

// Tests may build the bodies a peer that still speaks JSON would send; the
// analyzer skips _test.go files.
func legacyHello() []byte {
	b, _ := json.Marshal(map[string]string{"op": "hello"})
	return b
}
