package transport

import (
	//hyperprov:allow nojsonwire fixture: a debug dump that never reaches a socket
	"encoding/json"
)

func dump(v any) string {
	b, _ := json.MarshalIndent(v, "", "  ")
	return string(b)
}
