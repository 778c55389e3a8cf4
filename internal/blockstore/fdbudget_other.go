//go:build !unix

package blockstore

// fdBudget is a fixed 512 where the platform has no RLIMIT_NOFILE.
func fdBudget() int64 { return 512 }
