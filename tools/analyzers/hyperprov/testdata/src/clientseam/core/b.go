package core

import (
	//hyperprov:allow clientseam fixture: a suppressed line stays silent
	"clientseam/internal/device"
)

var _ *device.Executor
