//go:build unix

package blockstore

import (
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only. The mapping outlives
// f: the caller may close f at once.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(data []byte) error { return syscall.Munmap(data) }
