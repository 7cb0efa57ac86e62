// Package pkg is a minimal dirty module for the iocovlint exit-code test:
// Reset drops validate's error return, so errcheck must report a finding
// and the CLI must exit 1. The module path sits under iocov/cmd because
// errcheck is scoped to iocov/internal and iocov/cmd.
package pkg

type negativeError struct{}

func (negativeError) Error() string { return "negative count" }

func validate(n int) error {
	if n < 0 {
		return negativeError{}
	}
	return nil
}

// Reset validates n and silently drops the result.
func Reset(n int) { validate(n) }
