// Package shardcheck_good shares only read-only package tables and state
// whose declaration gives a reason: the pattern the worker paths follow.
package shardcheck_good

import "sync"

// weights is package-level but only ever read.
var weights = []int{3, 2, 1}

func work(shard int) int {
	total := 0
	for _, w := range weights {
		total += w * shard
	}
	return total
}

var cacheMu sync.Mutex

//iocov:shared-ok grown only under cacheMu; its contents do not depend on which goroutine grows it
var cache []byte

func grow(n int) []byte {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if len(cache) < n {
		cache = make([]byte, n)
	}
	return cache[:n]
}
