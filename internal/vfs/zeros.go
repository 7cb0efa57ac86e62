package vfs

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// The zero arena is one process-wide buffer of zero bytes that write
// payloads are sliced from: every write of the simulated suites and every
// syz write payload is all-zero by contract, so all of them, on every shard
// of a parallel run, can share one backing array. It only ever grows. Zeros
// installs a larger arena with one atomic store, so its read side takes no
// lock; an installed arena is never written again, so a slice of an older
// arena stays valid and zero after the arena grows.
var (
	zeroArena     atomic.Pointer[[]byte]
	zeroArenaGrow sync.Mutex // serializes growth only
)

// Zeros returns n zero bytes of the shared arena as arena[:n:n], growing the
// arena when n exceeds it; n must not be negative. The slice is strictly
// read-only: writing through it would corrupt every concurrent user of the
// arena, so it may serve only as a write-side payload (write, pwrite64,
// setxattr values), which the kernel copies before it returns.
func Zeros(n int) []byte {
	if p := zeroArena.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	return growZeros(n)
}

// growZeros installs an arena of at least n bytes and returns n of them.
func growZeros(n int) []byte {
	zeroArenaGrow.Lock()
	defer zeroArenaGrow.Unlock()
	p := zeroArena.Load()
	if p == nil || len(*p) < n {
		arena := make([]byte, n)
		p = &arena
		zeroArena.Store(p)
	}
	return (*p)[:n:n]
}

// allZero reports whether b holds only zero bytes. A slice of the current
// arena is known zero in O(1); anything else is scanned: its first byte is
// zero and every byte equals the one before it.
func allZero(b []byte) bool {
	return len(b) == 0 || fromArena(b) || b[0] == 0 && bytes.Equal(b[1:], b[:len(b)-1])
}

// fromArena reports whether the non-empty b starts at the current arena's
// base. Such a b is a slice of the arena: no slice can reach past the end of
// the array it was cut from.
func fromArena(b []byte) bool {
	p := zeroArena.Load()
	return p != nil && len(*p) > 0 && &b[0] == &(*p)[0]
}
