//go:build unix

package blockstore

import "syscall"

// fdBudget is half the soft RLIMIT_NOFILE, or 512 when it cannot be read.
func fdBudget() int64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 512
	}
	return int64(rl.Cur / 2)
}
