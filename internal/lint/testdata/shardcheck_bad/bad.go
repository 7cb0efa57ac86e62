// Package shardcheck_bad writes package-level state in every way
// shardcheck detects: a counter increment, a map store, and a lazy
// initialization behind a reasonless iocov:shared-ok directive.
package shardcheck_bad

var counter int64

var cache = map[string]int{}

func work(shard int) int64 {
	counter++
	cache["last"] = shard
	return counter
}

//iocov:shared-ok
var lazily map[string]int

func memo(k string, v int) {
	if lazily == nil {
		lazily = map[string]int{}
	}
	lazily[k] = v
}
